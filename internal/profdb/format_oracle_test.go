package profdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The codec as it stood before the append encoder and the in-place
// field splitter: fmt for every line, strings.Fields and a per-line
// directive map on the way in. It is kept only as the oracle the
// production codec must match byte for byte, accept for accept and
// error for error (TestCodecMatchesOracle, FuzzProfDBCodecOracle). The
// one change from the historical code is the negative-generation check,
// which both codecs gained together.

// oracleSortedKeys is the historical DB.sortedKeys.
func oracleSortedKeys(db *DB) []RecordKey {
	keys := make([]RecordKey, 0, len(db.Records))
	for k := range db.Records {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fingerprint != keys[j].Fingerprint {
			return keys[i].Fingerprint < keys[j].Fingerprint
		}
		return keys[i].Gen < keys[j].Gen
	})
	return keys
}

// oracleSortedTargetKeys returns the site keys with per-target data in on-disk
// order, skipping empty inner maps so they never affect serialization.
func oracleSortedTargetKeys(r *Record) []SiteKey {
	keys := make([]SiteKey, 0, len(r.Targets))
	for k := range r.Targets {
		if len(r.Targets[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return oracleSiteKeyLess(keys[i], keys[j]) })
	return keys
}

// oracleSortedSiteKeys returns the record's site keys in on-disk order.
func oracleSortedSiteKeys(r *Record) []SiteKey {
	keys := make([]SiteKey, 0, len(r.Sites))
	for k := range r.Sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return oracleSiteKeyLess(keys[i], keys[j]) })
	return keys
}

// oracleSiteKeyLess is the canonical on-disk site-key order.
func oracleSiteKeyLess(a, b SiteKey) bool {
	if a.Caller != b.Caller {
		return a.Caller < b.Caller
	}
	if a.Callee != b.Callee {
		return a.Callee < b.Callee
	}
	if a.Ordinal != b.Ordinal {
		return a.Ordinal < b.Ordinal
	}
	return a.PosHash < b.PosHash
}

// oracleSortedFuncNames returns the record's function names in on-disk order.
func oracleSortedFuncNames(r *Record) []string {
	names := make([]string, 0, len(r.Funcs))
	for n := range r.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// oracleWriteTo is the historical DB.WriteTo.
func oracleWriteTo(db *DB, w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintln(&sb, dbMagic)
	// An unnamed store (nothing ingested yet) omits the directive — a
	// bare "program " line would not re-parse.
	if db.Program != "" {
		fmt.Fprintf(&sb, "program %s\n", db.Program)
	}
	// The durability epoch is written only when the crash-safe Store has
	// stamped one, so plain offline databases keep their historical bytes.
	if db.Epoch > 0 {
		fmt.Fprintf(&sb, "epoch %d\n", db.Epoch)
	}
	for _, key := range oracleSortedKeys(db) {
		rec := db.Records[key]
		fmt.Fprintf(&sb, "record %s %d\n", rec.Fingerprint, rec.Gen)
		oracleWriteRecordBody(&sb, rec)
		fmt.Fprintln(&sb, "end")
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// oracleWriteSnapshot is the historical WriteSnapshot.
func oracleWriteSnapshot(w io.Writer, program string, rec *Record) (int64, error) {
	var sb strings.Builder
	fmt.Fprintln(&sb, snapMagic)
	if program != "" {
		fmt.Fprintf(&sb, "program %s\n", program)
	}
	fmt.Fprintf(&sb, "fingerprint %s\n", rec.Fingerprint)
	fmt.Fprintf(&sb, "gen %d\n", rec.Gen)
	oracleWriteRecordBody(&sb, rec)
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

func oracleWriteRecordBody(sb *strings.Builder, rec *Record) {
	fmt.Fprintf(sb, "runs %d\n", rec.Runs)
	fmt.Fprintf(sb, "il %d\n", rec.IL)
	fmt.Fprintf(sb, "control %d\n", rec.Control)
	fmt.Fprintf(sb, "calls %d\n", rec.Calls)
	fmt.Fprintf(sb, "returns %d\n", rec.Returns)
	fmt.Fprintf(sb, "extern %d\n", rec.Extern)
	fmt.Fprintf(sb, "ptr %d\n", rec.Ptr)
	fmt.Fprintf(sb, "truncated %d\n", rec.Truncated)
	fmt.Fprintf(sb, "maxstack %d\n", rec.MaxStack)
	for _, name := range oracleSortedFuncNames(rec) {
		fmt.Fprintf(sb, "func %s %d\n", name, rec.Funcs[name])
	}
	for _, k := range oracleSortedSiteKeys(rec) {
		fmt.Fprintf(sb, "site %s %d\n", k, rec.Sites[k])
	}
	for _, k := range oracleSortedTargetKeys(rec) {
		ts := rec.Targets[k]
		names := make([]string, 0, len(ts))
		for t := range ts {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			fmt.Fprintf(sb, "target %s %s %d\n", k, t, ts[t])
		}
	}
}

// oracleDecoder is the historical line-numbered strict scanner shared by the DB and
// snapshot readers.
type oracleDecoder struct {
	sc     *bufio.Scanner
	lineNo int
	what   string
}

func newOracleDecoder(r io.Reader, what string) *oracleDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	return &oracleDecoder{sc: sc, what: what}
}

// next returns the fields of the next non-blank, non-comment line.
func (d *oracleDecoder) next() ([]string, bool) {
	for d.sc.Scan() {
		d.lineNo++
		line := strings.TrimSpace(d.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strings.Fields(line), true
	}
	return nil, false
}

func (d *oracleDecoder) errf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: %s", d.what, d.lineNo, fmt.Sprintf(format, args...))
}

func (d *oracleDecoder) num(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, d.errf("bad number %q", s)
	}
	return v, nil
}

// count parses a count or total, which is never negative: a negative
// value ingested into a store would subtract weight from merged arcs.
func (d *oracleDecoder) count(s string) (int64, error) {
	v, err := d.num(s)
	if err == nil && v < 0 {
		return 0, d.errf("negative count %d", v)
	}
	return v, err
}

// oracleScalarFields maps record-body directives onto record fields.
func oracleScalarFields(rec *Record) map[string]*int64 {
	return map[string]*int64{
		"il": &rec.IL, "control": &rec.Control, "calls": &rec.Calls,
		"returns": &rec.Returns, "extern": &rec.Extern, "ptr": &rec.Ptr,
		"truncated": &rec.Truncated, "maxstack": &rec.MaxStack,
	}
}

// readBodyLine parses one record-body directive into rec. Returns
// handled=false when the directive belongs to the enclosing container.
func (d *oracleDecoder) readBodyLine(fields []string, rec *Record, seen map[string]int) (handled bool, err error) {
	switch fields[0] {
	case "runs":
		if len(fields) != 2 {
			return true, d.errf("malformed %q", strings.Join(fields, " "))
		}
		if prev, dup := seen["runs"]; dup {
			return true, d.errf("duplicate %q directive (first on line %d)", "runs", prev)
		}
		seen["runs"] = d.lineNo
		v, err := d.count(fields[1])
		if err != nil {
			return true, err
		}
		rec.Runs = int(v)
		return true, nil
	case "samplerate":
		if len(fields) != 2 {
			return true, d.errf("malformed %q", strings.Join(fields, " "))
		}
		if prev, dup := seen["samplerate"]; dup {
			return true, d.errf("duplicate %q directive (first on line %d)", "samplerate", prev)
		}
		seen["samplerate"] = d.lineNo
		v, err := d.num(fields[1])
		if err != nil {
			return true, err
		}
		if v < -1 {
			return true, d.errf("bad samplerate %d (want -1, 0, or a positive rate)", v)
		}
		return true, nil // legacy: validated, then dropped
	case "il", "control", "calls", "returns", "extern", "ptr", "truncated", "maxstack":
		if len(fields) != 2 {
			return true, d.errf("malformed %q", strings.Join(fields, " "))
		}
		if prev, dup := seen[fields[0]]; dup {
			return true, d.errf("duplicate %q directive (first on line %d)", fields[0], prev)
		}
		seen[fields[0]] = d.lineNo
		v, err := d.count(fields[1])
		if err != nil {
			return true, err
		}
		*oracleScalarFields(rec)[fields[0]] = v
		return true, nil
	case "func":
		if len(fields) != 3 {
			return true, d.errf("malformed func entry (want `func <name> <count>`)")
		}
		if _, dup := rec.Funcs[fields[1]]; dup {
			return true, d.errf("duplicate func entry %q", fields[1])
		}
		v, err := d.count(fields[2])
		if err != nil {
			return true, err
		}
		rec.Funcs[fields[1]] = v
		return true, nil
	case "site":
		if len(fields) != 6 {
			return true, d.errf("malformed site entry (want `site <caller> <callee> <ordinal> <poshash> <count>`)")
		}
		ord, err := d.num(fields[3])
		if err != nil {
			return true, err
		}
		ph, err := strconv.ParseUint(fields[4], 16, 32)
		if err != nil {
			return true, d.errf("bad poshash %q", fields[4])
		}
		v, err := d.count(fields[5])
		if err != nil {
			return true, err
		}
		k := SiteKey{Caller: fields[1], Callee: fields[2], Ordinal: int(ord), PosHash: uint32(ph)}
		if _, dup := rec.Sites[k]; dup {
			return true, d.errf("duplicate site entry %q", k.String())
		}
		rec.Sites[k] = v
		return true, nil
	case "target":
		if len(fields) != 7 {
			return true, d.errf("malformed target entry (want `target <caller> <callee> <ordinal> <poshash> <target-func> <count>`)")
		}
		ord, err := d.num(fields[3])
		if err != nil {
			return true, err
		}
		ph, err := strconv.ParseUint(fields[4], 16, 32)
		if err != nil {
			return true, d.errf("bad poshash %q", fields[4])
		}
		v, err := d.count(fields[6])
		if err != nil {
			return true, err
		}
		k := SiteKey{Caller: fields[1], Callee: fields[2], Ordinal: int(ord), PosHash: uint32(ph)}
		if _, dup := rec.Targets[k][fields[5]]; dup {
			return true, d.errf("duplicate target entry %q %s", k.String(), fields[5])
		}
		rec.addTarget(k, fields[5], v)
		return true, nil
	}
	return false, nil
}

// oracleReadDB is the historical ReadDB.
func oracleReadDB(r io.Reader) (*DB, error) {
	d := newOracleDecoder(r, "profdb")
	fields, ok := d.next()
	if !ok {
		return nil, fmt.Errorf("profdb: empty input")
	}
	if strings.Join(fields, " ") != dbMagic {
		return nil, fmt.Errorf("profdb: bad magic %q", strings.Join(fields, " "))
	}
	db := NewDB("")
	var rec *Record
	var seen map[string]int
	sawProgram := false
	sawEpoch := false
	finish := func() error {
		if rec == nil {
			return nil
		}
		return d.errf("record %s %d not terminated by `end`", rec.Fingerprint, rec.Gen)
	}
	for {
		fields, ok := d.next()
		if !ok {
			if err := d.sc.Err(); err != nil {
				return nil, err
			}
			if err := finish(); err != nil {
				return nil, err
			}
			return db, nil
		}
		switch fields[0] {
		case "program":
			if rec != nil {
				return nil, d.errf("`program` inside a record")
			}
			if sawProgram {
				return nil, d.errf("duplicate `program` directive")
			}
			if len(fields) != 2 {
				return nil, d.errf("malformed program directive")
			}
			sawProgram = true
			db.Program = fields[1]
		case "epoch":
			if rec != nil {
				return nil, d.errf("`epoch` inside a record")
			}
			if sawEpoch {
				return nil, d.errf("duplicate `epoch` directive")
			}
			if len(fields) != 2 {
				return nil, d.errf("malformed epoch directive")
			}
			v, err := d.num(fields[1])
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, d.errf("negative epoch %d", v)
			}
			sawEpoch = true
			db.Epoch = int(v)
		case "record":
			if rec != nil {
				return nil, d.errf("`record` before previous record's `end`")
			}
			if len(fields) != 3 {
				return nil, d.errf("malformed record header (want `record <fingerprint> <gen>`)")
			}
			gen, err := d.num(fields[2])
			if err != nil {
				return nil, err
			}
			if gen < 0 {
				return nil, d.errf("negative generation %d", gen)
			}
			rec = NewRecord(fields[1], int(gen))
			seen = make(map[string]int)
		case "end":
			if rec == nil {
				return nil, d.errf("`end` outside a record")
			}
			if rec.Runs <= 0 {
				return nil, d.errf("record %s %d has missing or non-positive runs count", rec.Fingerprint, rec.Gen)
			}
			key := RecordKey{rec.Fingerprint, rec.Gen}
			if _, dup := db.Records[key]; dup {
				return nil, d.errf("duplicate record %s %d", rec.Fingerprint, rec.Gen)
			}
			db.Records[key] = rec
			rec = nil
		default:
			if rec == nil {
				return nil, d.errf("unknown directive %q", fields[0])
			}
			handled, err := d.readBodyLine(fields, rec, seen)
			if err != nil {
				return nil, err
			}
			if !handled {
				return nil, d.errf("unknown directive %q", fields[0])
			}
		}
	}
}

// oracleReadSnapshot is the historical ReadSnapshot.
func oracleReadSnapshot(r io.Reader) (program string, rec *Record, err error) {
	d := newOracleDecoder(r, "profdb snapshot")
	fields, ok := d.next()
	if !ok {
		return "", nil, fmt.Errorf("profdb snapshot: empty input")
	}
	if strings.Join(fields, " ") != snapMagic {
		return "", nil, fmt.Errorf("profdb snapshot: bad magic %q", strings.Join(fields, " "))
	}
	rec = NewRecord("", 0)
	seen := make(map[string]int)
	for {
		fields, ok := d.next()
		if !ok {
			if err := d.sc.Err(); err != nil {
				return "", nil, err
			}
			if rec.Fingerprint == "" {
				return "", nil, fmt.Errorf("profdb snapshot: missing fingerprint")
			}
			if rec.Runs <= 0 {
				return "", nil, fmt.Errorf("profdb snapshot: missing or non-positive runs count")
			}
			return program, rec, nil
		}
		switch fields[0] {
		case "program":
			if len(fields) != 2 {
				return "", nil, d.errf("malformed program directive")
			}
			if prev, dup := seen["program"]; dup {
				return "", nil, d.errf("duplicate %q directive (first on line %d)", "program", prev)
			}
			seen["program"] = d.lineNo
			program = fields[1]
		case "fingerprint":
			if len(fields) != 2 {
				return "", nil, d.errf("malformed fingerprint directive")
			}
			if prev, dup := seen["fingerprint"]; dup {
				return "", nil, d.errf("duplicate %q directive (first on line %d)", "fingerprint", prev)
			}
			seen["fingerprint"] = d.lineNo
			rec.Fingerprint = fields[1]
		case "gen":
			if len(fields) != 2 {
				return "", nil, d.errf("malformed gen directive")
			}
			if prev, dup := seen["gen"]; dup {
				return "", nil, d.errf("duplicate %q directive (first on line %d)", "gen", prev)
			}
			seen["gen"] = d.lineNo
			v, err := d.num(fields[1])
			if err != nil {
				return "", nil, err
			}
			if v < 0 {
				return "", nil, d.errf("negative generation %d", v)
			}
			rec.Gen = int(v)
		default:
			handled, err := d.readBodyLine(fields, rec, seen)
			if err != nil {
				return "", nil, err
			}
			if !handled {
				return "", nil, d.errf("unknown directive %q", fields[0])
			}
		}
	}
}
