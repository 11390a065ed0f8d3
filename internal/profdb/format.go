package profdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"inlinec/internal/ir"
	"inlinec/internal/profile"
)

// On-disk formats, version 1. Both are line-oriented text in the spirit
// of the legacy ILPROF interface.
//
// Database file:
//
//	ILPROFDB 1
//	program <name>
//	record <fingerprint> <gen>
//	runs <n>
//	il <n>
//	control <n>
//	calls <n>
//	returns <n>
//	extern <n>
//	ptr <n>
//	truncated <n>
//	maxstack <n>
//	func <name> <total-count>
//	site <caller> <callee> <ordinal> <poshash> <total-count>
//	target <caller> <callee> <ordinal> <poshash> <target-func> <total-count>
//	end
//	record ...
//
// Snapshot (one record, the ilprofd ingest/serve payload):
//
//	ILPROFSNAP 1
//	program <name>
//	fingerprint <fp>
//	gen <n>
//	runs <n>
//	... same record body, no "end" ...
//
// Records are sorted by (fingerprint, gen), funcs by name, and sites by
// key, so a database's serialization is a pure function of its contents.
// Decoding is strict — duplicate directives, duplicate entries, unknown
// directives, malformed fields, negative counts and negative
// generations are line-numbered errors. Older files may carry a
// `samplerate <k>` body line (k >= -1, at most once per record), left by
// a since-removed sampling profiler; the reader checks it as strictly as
// ever and then drops it, and the writer never emits it.

const (
	dbMagic   = "ILPROFDB 1"
	snapMagic = "ILPROFSNAP 1"
)

// WriteTo serializes the database deterministically.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(db.AppendTo(nil))
	return int64(n), err
}

// AppendTo appends the serialization WriteTo writes to b and returns
// the extended buffer.
func (db *DB) AppendTo(b []byte) []byte {
	b = append(b, dbMagic+"\n"...)
	// An unnamed store (nothing ingested yet) omits the directive — a
	// bare "program " line would not re-parse.
	if db.Program != "" {
		b = appendName(b, "program ", db.Program)
	}
	// The durability epoch is written only when the crash-safe Store has
	// stamped one, so plain offline databases keep their historical bytes.
	if db.Epoch > 0 {
		b = appendNum(b, "epoch ", int64(db.Epoch))
	}
	keys := db.sortedKeys()
	size := 0
	for _, key := range keys {
		size += db.Records[key].sizeHint()
	}
	b = slices.Grow(b, size)
	for _, key := range keys {
		rec := db.Records[key]
		b = append(b, "record "...)
		b = append(b, rec.Fingerprint...)
		b = appendNum(b, " ", int64(rec.Gen))
		b = appendRecordBody(b, rec)
		b = append(b, "end\n"...)
	}
	return b
}

// WriteSnapshot serializes one record as an ingest/serve payload.
func WriteSnapshot(w io.Writer, program string, rec *Record) (int64, error) {
	b := make([]byte, 0, 64+len(program)+rec.sizeHint())
	b = append(b, snapMagic+"\n"...)
	if program != "" {
		b = appendName(b, "program ", program)
	}
	b = appendName(b, "fingerprint ", rec.Fingerprint)
	b = appendNum(b, "gen ", int64(rec.Gen))
	b = appendRecordBody(b, rec)
	n, err := w.Write(b)
	return int64(n), err
}

// appendRecordBody appends the lines shared by a database record and a
// snapshot: the scalar totals, then funcs, sites and targets in their
// canonical order.
func appendRecordBody(b []byte, rec *Record) []byte {
	b = appendNum(b, "runs ", int64(rec.Runs))
	b = appendNum(b, "il ", rec.IL)
	b = appendNum(b, "control ", rec.Control)
	b = appendNum(b, "calls ", rec.Calls)
	b = appendNum(b, "returns ", rec.Returns)
	b = appendNum(b, "extern ", rec.Extern)
	b = appendNum(b, "ptr ", rec.Ptr)
	b = appendNum(b, "truncated ", rec.Truncated)
	b = appendNum(b, "maxstack ", rec.MaxStack)
	for _, name := range rec.sortedFuncNames() {
		b = append(b, "func "...)
		b = append(b, name...)
		b = appendNum(b, " ", rec.Funcs[name])
	}
	for _, k := range rec.sortedSiteKeys() {
		b = appendSiteKey(append(b, "site "...), k)
		b = appendNum(b, " ", rec.Sites[k])
	}
	for _, k := range rec.sortedTargetKeys() {
		ts := rec.Targets[k]
		names := make([]string, 0, len(ts))
		for t := range ts {
			names = append(names, t)
		}
		slices.Sort(names)
		for _, t := range names {
			b = appendSiteKey(append(b, "target "...), k)
			b = append(b, ' ')
			b = append(b, t...)
			b = appendNum(b, " ", ts[t])
		}
	}
	return b
}

// Equal reports whether r and o serialize to the same record body and
// header: it compares exactly the fields appendRecordBody and the
// record/snapshot headers write. An empty inner target map writes no
// line, so it does not count. A field added to the encoding must be
// added here too.
func (r *Record) Equal(o *Record) bool {
	if r.Fingerprint != o.Fingerprint || r.Gen != o.Gen || r.Runs != o.Runs ||
		r.IL != o.IL || r.Control != o.Control || r.Calls != o.Calls ||
		r.Returns != o.Returns || r.Extern != o.Extern || r.Ptr != o.Ptr ||
		r.Truncated != o.Truncated || r.MaxStack != o.MaxStack {
		return false
	}
	if !maps.Equal(r.Funcs, o.Funcs) || !maps.Equal(r.Sites, o.Sites) {
		return false
	}
	// Every non-empty inner map of r matches o's, and o has no more
	// non-empty ones than r.
	unmatched := 0
	for k, ts := range r.Targets {
		if len(ts) == 0 {
			continue
		}
		if !maps.Equal(ts, o.Targets[k]) {
			return false
		}
		unmatched++
	}
	for _, ts := range o.Targets {
		if len(ts) > 0 {
			unmatched--
		}
	}
	return unmatched == 0
}

// sizeHint estimates the length of rec's encoding, at the 48 bytes a
// line rarely exceeds, so a dump is encoded into one allocation.
func (r *Record) sizeHint() int {
	return 48 * (11 + len(r.Funcs) + len(r.Sites) + len(r.Targets))
}

// appendNum appends one "<prefix><v>\n" line (or line tail).
func appendNum(b []byte, prefix string, v int64) []byte {
	b = append(b, prefix...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

// appendName appends one "<prefix><name>\n" line.
func appendName(b []byte, prefix, name string) []byte {
	b = append(b, prefix...)
	b = append(b, name...)
	return append(b, '\n')
}

// appendSiteKey appends k in its on-disk field order, as SiteKey.String
// renders it: the poshash is always 8 lowercase hex digits.
func appendSiteKey(b []byte, k SiteKey) []byte {
	b = append(b, k.Caller...)
	b = append(b, ' ')
	b = append(b, k.Callee...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(k.Ordinal), 10)
	b = append(b, ' ')
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[k.PosHash>>shift&0xf])
	}
	return b
}

const hexDigits = "0123456789abcdef"

// maxFields is the widest line either format has (`target`).
const maxFields = 7

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// decoder is a line-numbered strict scanner shared by the DB and
// snapshot readers. Lines are split in place, without allocating; the
// names they carry are interned, so a dump allocates each name once.
type decoder struct {
	sc     *bufio.Scanner
	lineNo int
	what   string

	line []byte            // the current line; valid until the next call to next
	f    [maxFields][]byte // its first maxFields fields
	n    int               // its field count, which may exceed maxFields

	names map[string]string
}

func newDecoder(r io.Reader, what string) *decoder {
	sc := bufio.NewScanner(r)
	// The buffer only grows for a line longer than it, doubling up to
	// the 64 MiB line limit.
	sc.Buffer(make([]byte, 0, 4<<10), 64<<20)
	return &decoder{sc: sc, what: what, names: make(map[string]string, 64)}
}

// next advances to the next non-blank, non-comment line and splits it
// into fields.
func (d *decoder) next() bool {
	for d.sc.Scan() {
		d.lineNo++
		d.line = d.sc.Bytes()
		d.split()
		if d.n == 0 || d.f[0][0] == '#' {
			continue
		}
		return true
	}
	return false
}

// split breaks the current line into fields exactly as strings.Fields
// does. An all-ASCII line is split on the six ASCII spaces; any other
// byte sends the whole line through bytes.Fields, which shares
// strings.Fields' Unicode-space rules (U+0085, U+00A0, ...).
func (d *decoder) split() {
	d.n = 0
	line := d.line
	for i := 0; i < len(line); {
		if line[i] >= utf8.RuneSelf {
			d.n = 0
			for _, f := range bytes.Fields(line) {
				d.add(f)
			}
			return
		}
		if asciiSpace[line[i]] {
			i++
			continue
		}
		start := i
		for i < len(line) && line[i] < utf8.RuneSelf && !asciiSpace[line[i]] {
			i++
		}
		d.add(line[start:i])
	}
}

func (d *decoder) add(f []byte) {
	if d.n < maxFields {
		d.f[d.n] = f
	}
	d.n++
}

// joined renders the current line's fields separated by single spaces,
// for error messages.
func (d *decoder) joined() string {
	return string(bytes.Join(bytes.Fields(d.line), []byte(" ")))
}

// intern returns b as a string, allocating each distinct name once per
// decode.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: %s", d.what, d.lineNo, fmt.Sprintf(format, args...))
}

// num parses a decimal field. strconv copies its input only to build
// an error, so the string conversion stays off the heap.
func (d *decoder) num(b []byte) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, d.errf("bad number %q", b)
	}
	return v, nil
}

// posHash parses a poshash field.
func (d *decoder) posHash(b []byte) (uint32, error) {
	v, err := strconv.ParseUint(string(b), 16, 32)
	if err != nil {
		return 0, d.errf("bad poshash %q", b)
	}
	return uint32(v), nil
}

// count parses a count or total, which is never negative: a negative
// value ingested into a store would subtract weight from merged arcs.
func (d *decoder) count(b []byte) (int64, error) {
	v, err := d.num(b)
	if err == nil && v < 0 {
		return 0, d.errf("negative count %d", v)
	}
	return v, err
}

// gen parses a generation. Generations are never negative: decay is
// measured from the newest generation, and with none above 0 a store
// of negative generations would decay as if generation 0 existed.
func (d *decoder) gen(b []byte) (int, error) {
	v, err := d.num(b)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, d.errf("negative generation %d", v)
	}
	return int(v), nil
}

// directive identifies a line's leading keyword; the decoders dispatch
// on it and index their duplicate-directive tracking by it.
type directive uint8

const (
	dirUnknown directive = iota
	dirRuns
	dirSampleRate
	dirIL
	dirControl
	dirCalls
	dirReturns
	dirExtern
	dirPtr
	dirTruncated
	dirMaxStack
	dirFunc
	dirSite
	dirTarget
	dirProgram
	dirEpoch
	dirRecord
	dirEnd
	dirFingerprint
	dirGen
	numDirectives
)

var directiveNames = [numDirectives]string{
	dirRuns: "runs", dirSampleRate: "samplerate", dirIL: "il", dirControl: "control",
	dirCalls: "calls", dirReturns: "returns", dirExtern: "extern", dirPtr: "ptr",
	dirTruncated: "truncated", dirMaxStack: "maxstack", dirFunc: "func", dirSite: "site",
	dirTarget: "target", dirProgram: "program", dirEpoch: "epoch", dirRecord: "record",
	dirEnd: "end", dirFingerprint: "fingerprint", dirGen: "gen",
}

// directiveByName inverts directiveNames; absent names map to
// dirUnknown.
var directiveByName = func() map[string]directive {
	m := make(map[string]directive, numDirectives)
	for dir, name := range directiveNames {
		if name != "" {
			m[name] = directive(dir)
		}
	}
	return m
}()

// directive classifies the current line by its first field.
func (d *decoder) directive() directive { return directiveByName[string(d.f[0])] }

// seenLines records, per directive, the line it first appeared on (0:
// not yet), for the duplicate-directive check.
type seenLines [numDirectives]int

// once rejects a second occurrence of a once-only directive.
func (d *decoder) once(seen *seenLines, dir directive) error {
	if prev := seen[dir]; prev != 0 {
		return d.errf("duplicate %q directive (first on line %d)", directiveNames[dir], prev)
	}
	seen[dir] = d.lineNo
	return nil
}

// scalar returns the record field a scalar body directive sets.
func (r *Record) scalar(dir directive) *int64 {
	switch dir {
	case dirIL:
		return &r.IL
	case dirControl:
		return &r.Control
	case dirCalls:
		return &r.Calls
	case dirReturns:
		return &r.Returns
	case dirExtern:
		return &r.Extern
	case dirPtr:
		return &r.Ptr
	case dirTruncated:
		return &r.Truncated
	case dirMaxStack:
		return &r.MaxStack
	}
	return nil
}

// siteKey parses fields 1-4 of a site or target line.
func (d *decoder) siteKey() (SiteKey, error) {
	ord, err := d.num(d.f[3])
	if err != nil {
		return SiteKey{}, err
	}
	ph, err := d.posHash(d.f[4])
	if err != nil {
		return SiteKey{}, err
	}
	return SiteKey{Caller: d.intern(d.f[1]), Callee: d.intern(d.f[2]), Ordinal: int(ord), PosHash: ph}, nil
}

// readBodyLine parses one record-body directive into rec. Returns
// handled=false when the directive belongs to the enclosing container.
func (d *decoder) readBodyLine(dir directive, rec *Record, seen *seenLines) (handled bool, err error) {
	switch dir {
	case dirRuns, dirSampleRate, dirIL, dirControl, dirCalls, dirReturns, dirExtern, dirPtr, dirTruncated, dirMaxStack:
		if d.n != 2 {
			return true, d.errf("malformed %q", d.joined())
		}
		if err := d.once(seen, dir); err != nil {
			return true, err
		}
		if dir == dirSampleRate {
			v, err := d.num(d.f[1])
			if err != nil {
				return true, err
			}
			if v < -1 {
				return true, d.errf("bad samplerate %d (want -1, 0, or a positive rate)", v)
			}
			return true, nil // legacy: validated, then dropped
		}
		v, err := d.count(d.f[1])
		if err != nil {
			return true, err
		}
		if dir == dirRuns {
			rec.Runs = int(v)
		} else {
			*rec.scalar(dir) = v
		}
		return true, nil
	case dirFunc:
		if d.n != 3 {
			return true, d.errf("malformed func entry (want `func <name> <count>`)")
		}
		if _, dup := rec.Funcs[string(d.f[1])]; dup {
			return true, d.errf("duplicate func entry %q", d.f[1])
		}
		v, err := d.count(d.f[2])
		if err != nil {
			return true, err
		}
		rec.Funcs[d.intern(d.f[1])] = v
		return true, nil
	case dirSite:
		if d.n != 6 {
			return true, d.errf("malformed site entry (want `site <caller> <callee> <ordinal> <poshash> <count>`)")
		}
		k, err := d.siteKey()
		if err != nil {
			return true, err
		}
		v, err := d.count(d.f[5])
		if err != nil {
			return true, err
		}
		if _, dup := rec.Sites[k]; dup {
			return true, d.errf("duplicate site entry %q", k.String())
		}
		rec.Sites[k] = v
		return true, nil
	case dirTarget:
		if d.n != 7 {
			return true, d.errf("malformed target entry (want `target <caller> <callee> <ordinal> <poshash> <target-func> <count>`)")
		}
		k, err := d.siteKey()
		if err != nil {
			return true, err
		}
		v, err := d.count(d.f[6])
		if err != nil {
			return true, err
		}
		if _, dup := rec.Targets[k][string(d.f[5])]; dup {
			return true, d.errf("duplicate target entry %q %s", k.String(), d.f[5])
		}
		rec.addTarget(k, d.intern(d.f[5]), v)
		return true, nil
	}
	return false, nil
}

// ReadDB parses a serialized database.
func ReadDB(r io.Reader) (*DB, error) {
	db, _, err := readDB(r, false)
	return db, err
}

// readDB is ReadDB. With dropNegativeGen set, a record with a negative
// generation — which stores written before generations were checked
// may hold — is parsed as strictly as any other, then left out and
// counted instead of failing the whole file.
func readDB(r io.Reader, dropNegativeGen bool) (db *DB, dropped int, err error) {
	d := newDecoder(r, "profdb")
	if !d.next() {
		return nil, 0, fmt.Errorf("profdb: empty input")
	}
	if magic := d.joined(); magic != dbMagic {
		return nil, 0, fmt.Errorf("profdb: bad magic %q", magic)
	}
	db = NewDB("")
	// rec is the record being read, prev the last one completed: a
	// dump's records tend to share one shape, so each new record's maps
	// start at its predecessor's size.
	var rec, prev *Record
	var seen seenLines
	sawProgram := false
	sawEpoch := false
	for {
		if !d.next() {
			if err := d.sc.Err(); err != nil {
				return nil, 0, err
			}
			if rec != nil {
				return nil, 0, d.errf("record %s %d not terminated by `end`", rec.Fingerprint, rec.Gen)
			}
			return db, dropped, nil
		}
		switch dir := d.directive(); dir {
		case dirProgram:
			if rec != nil {
				return nil, 0, d.errf("`program` inside a record")
			}
			if sawProgram {
				return nil, 0, d.errf("duplicate `program` directive")
			}
			if d.n != 2 {
				return nil, 0, d.errf("malformed program directive")
			}
			sawProgram = true
			db.Program = string(d.f[1])
		case dirEpoch:
			if rec != nil {
				return nil, 0, d.errf("`epoch` inside a record")
			}
			if sawEpoch {
				return nil, 0, d.errf("duplicate `epoch` directive")
			}
			if d.n != 2 {
				return nil, 0, d.errf("malformed epoch directive")
			}
			v, err := d.num(d.f[1])
			if err != nil {
				return nil, 0, err
			}
			if v < 0 {
				return nil, 0, d.errf("negative epoch %d", v)
			}
			sawEpoch = true
			db.Epoch = int(v)
		case dirRecord:
			if rec != nil {
				return nil, 0, d.errf("`record` before previous record's `end`")
			}
			if d.n != 3 {
				return nil, 0, d.errf("malformed record header (want `record <fingerprint> <gen>`)")
			}
			gen, err := d.num(d.f[2])
			if err != nil {
				return nil, 0, err
			}
			if gen < 0 && !dropNegativeGen {
				return nil, 0, d.errf("negative generation %d", gen)
			}
			rec = newRecordLike(d.intern(d.f[1]), int(gen), prev)
			seen = seenLines{}
		case dirEnd:
			if rec == nil {
				return nil, 0, d.errf("`end` outside a record")
			}
			if rec.Runs <= 0 {
				return nil, 0, d.errf("record %s %d has missing or non-positive runs count", rec.Fingerprint, rec.Gen)
			}
			if rec.Gen < 0 {
				dropped++
				rec, prev = nil, rec
				continue
			}
			key := RecordKey{rec.Fingerprint, rec.Gen}
			if _, dup := db.Records[key]; dup {
				return nil, 0, d.errf("duplicate record %s %d", rec.Fingerprint, rec.Gen)
			}
			db.Records[key] = rec
			rec, prev = nil, rec
		default:
			if rec == nil {
				return nil, 0, d.errf("unknown directive %q", d.f[0])
			}
			handled, err := d.readBodyLine(dir, rec, &seen)
			if err != nil {
				return nil, 0, err
			}
			if !handled {
				return nil, 0, d.errf("unknown directive %q", d.f[0])
			}
		}
	}
}

// ReadSnapshot parses an ingest/serve payload.
func ReadSnapshot(r io.Reader) (program string, rec *Record, err error) {
	d := newDecoder(r, "profdb snapshot")
	if !d.next() {
		return "", nil, fmt.Errorf("profdb snapshot: empty input")
	}
	if magic := d.joined(); magic != snapMagic {
		return "", nil, fmt.Errorf("profdb snapshot: bad magic %q", magic)
	}
	rec = NewRecord("", 0)
	var seen seenLines
	for {
		if !d.next() {
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
		switch dir := d.directive(); dir {
		case dirProgram:
			if d.n != 2 {
				return "", nil, d.errf("malformed program directive")
			}
			if err := d.once(&seen, dir); err != nil {
				return "", nil, err
			}
			program = string(d.f[1])
		case dirFingerprint:
			if d.n != 2 {
				return "", nil, d.errf("malformed fingerprint directive")
			}
			if err := d.once(&seen, dir); err != nil {
				return "", nil, err
			}
			rec.Fingerprint = string(d.f[1])
		case dirGen:
			if d.n != 2 {
				return "", nil, d.errf("malformed gen directive")
			}
			if err := d.once(&seen, dir); err != nil {
				return "", nil, err
			}
			gen, err := d.gen(d.f[1])
			if err != nil {
				return "", nil, err
			}
			rec.Gen = gen
		default:
			handled, err := d.readBodyLine(dir, rec, &seen)
			if err != nil {
				return "", nil, err
			}
			if !handled {
				return "", nil, d.errf("unknown directive %q", d.f[0])
			}
		}
	}
}

// SnapshotOf converts an id-keyed averaged profile collected on mod into
// a stable-key record stamped with the module's fingerprint. It fails if
// the profile references a call-site id the module doesn't define — the
// exact profile/module mismatch stable keys exist to catch.
func SnapshotOf(prof *profile.Profile, mod *ir.Module, gen int) (*Record, error) {
	keys := ModuleKeys(mod)
	rec := NewRecord(ModuleFingerprint(mod), gen)
	rec.Runs = prof.Runs
	rec.IL = prof.TotalIL
	rec.Control = prof.TotalControl
	rec.Calls = prof.TotalCalls
	rec.Returns = prof.TotalReturns
	rec.Extern = prof.TotalExtern
	rec.Ptr = prof.TotalPtr
	rec.Truncated = prof.TotalTruncated
	rec.MaxStack = prof.MaxStack

	ids := make([]int, 0, len(prof.SiteCounts))
	for id := range prof.SiteCounts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		k, ok := keys.Key(id)
		if !ok {
			return nil, fmt.Errorf("profdb: profile references call-site id %d, which %s does not define (profile/module mismatch)",
				id, mod.Name)
		}
		rec.Sites[k] += prof.SiteCounts[id]
	}
	tids := make([]int, 0, len(prof.PtrTargets))
	for id := range prof.PtrTargets {
		tids = append(tids, id)
	}
	sort.Ints(tids)
	for _, id := range tids {
		k, ok := keys.Key(id)
		if !ok {
			return nil, fmt.Errorf("profdb: profile references call-site id %d, which %s does not define (profile/module mismatch)",
				id, mod.Name)
		}
		for t, n := range prof.PtrTargets[id] {
			rec.addTarget(k, t, n)
		}
	}
	for name, n := range prof.FuncCounts {
		rec.Funcs[name] = n
	}
	return rec, nil
}

// ReadDBFile loads a database from disk. A missing file yields an empty
// database named program, so first ingests need no separate init step.
func ReadDBFile(path, program string) (*DB, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return NewDB(program), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := ReadDB(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// WriteDBFile atomically replaces path with the database's serialization
// (write to a temp file in the same directory, then rename).
func WriteDBFile(path string, db *DB) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".profdb-*")
	if err != nil {
		return err
	}
	if _, err := db.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// The rename must only ever install fully-durable bytes: without this
	// barrier a crash shortly after can leave the new name pointing at a
	// half-written file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
