package profdb

import (
	"bufio"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// loadDecoderSeeds reads testdata/decoder_seeds.txt: one Go-quoted
// input per line, # comments and blank lines skipped.
func loadDecoderSeeds(t testing.TB) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "decoder_seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seeds []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("decoder_seeds.txt: %v: %s", err, line)
		}
		seeds = append(seeds, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return seeds
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkCodecAgrees decodes data with the production and the oracle
// decoders, as a database and as a snapshot. Both must accept or reject
// alike, with identical error text; accepted values must be equal and
// re-encode to identical bytes under both encoders.
func checkCodecAgrees(t testing.TB, data string) {
	t.Helper()
	db, err := ReadDB(strings.NewReader(data))
	odb, oerr := oracleReadDB(strings.NewReader(data))
	if errText(err) != errText(oerr) {
		t.Fatalf("ReadDB(%q):\n  error  %s\n  oracle %s", data, errText(err), errText(oerr))
	}
	if err == nil {
		if !reflect.DeepEqual(db, odb) {
			t.Fatalf("ReadDB(%q) decoded a different database than the oracle", data)
		}
		checkDBEncodersAgree(t, db)
	}
	program, rec, err := ReadSnapshot(strings.NewReader(data))
	oprogram, orec, oerr := oracleReadSnapshot(strings.NewReader(data))
	if errText(err) != errText(oerr) {
		t.Fatalf("ReadSnapshot(%q):\n  error  %s\n  oracle %s", data, errText(err), errText(oerr))
	}
	if err == nil {
		if program != oprogram || !reflect.DeepEqual(rec, orec) {
			t.Fatalf("ReadSnapshot(%q) decoded a different snapshot than the oracle", data)
		}
		checkSnapshotEncodersAgree(t, program, rec)
	}
}

func checkDBEncodersAgree(t testing.TB, db *DB) {
	t.Helper()
	var got, want strings.Builder
	n, err := db.WriteTo(&got)
	if err != nil || n != int64(got.Len()) {
		t.Fatalf("WriteTo = %d, %v for %d bytes", n, err, got.Len())
	}
	oracleWriteTo(db, &want)
	if got.String() != want.String() {
		t.Fatalf("WriteTo differs from the oracle:\n--- got ---\n%s--- oracle ---\n%s", got.String(), want.String())
	}
}

func checkSnapshotEncodersAgree(t testing.TB, program string, rec *Record) {
	t.Helper()
	var got, want strings.Builder
	n, err := WriteSnapshot(&got, program, rec)
	if err != nil || n != int64(got.Len()) {
		t.Fatalf("WriteSnapshot = %d, %v for %d bytes", n, err, got.Len())
	}
	oracleWriteSnapshot(&want, program, rec)
	if got.String() != want.String() {
		t.Fatalf("WriteSnapshot differs from the oracle:\n--- got ---\n%s--- oracle ---\n%s", got.String(), want.String())
	}
}

// randomName mostly draws from a small pool, so sites and targets
// collide and share names, and now and then returns a name no decoder
// can read back: empty, with a space, or with a Unicode space.
func randomName(r *rand.Rand) string {
	pool := []string{"main", "work", "leaf", "###", "$$$", "printf", "cover", "count", "a", "b", "fé", "x\xff"}
	switch r.Intn(40) {
	case 0:
		return ""
	case 1:
		return "two words"
	case 2:
		return "nb\u00a0sp"
	}
	return pool[r.Intn(len(pool))]
}

func randomCount(r *rand.Rand) int64 {
	switch r.Intn(20) {
	case 0:
		return 0
	case 1:
		return -1 - r.Int63n(100)
	case 2:
		return r.Int63()
	}
	return r.Int63n(100000)
}

// randomRecord builds a record with funcs, sites and pointer targets,
// including inner target maps left empty, which serialize as nothing.
func randomRecord(r *rand.Rand, fp string, gen int) *Record {
	rec := NewRecord(fp, gen)
	rec.Runs = 1 + r.Intn(50)
	if r.Intn(30) == 0 {
		rec.Runs = -r.Intn(2)
	}
	for _, p := range []*int64{&rec.IL, &rec.Control, &rec.Calls, &rec.Returns, &rec.Extern, &rec.Ptr, &rec.Truncated, &rec.MaxStack} {
		*p = randomCount(r)
	}
	for i := r.Intn(6); i > 0; i-- {
		rec.Funcs[randomName(r)] = randomCount(r)
	}
	for i := r.Intn(12); i > 0; i-- {
		k := SiteKey{Caller: randomName(r), Callee: randomName(r), Ordinal: r.Intn(4) - r.Intn(2), PosHash: r.Uint32() >> uint(r.Intn(32))}
		rec.Sites[k] = randomCount(r)
		switch r.Intn(4) {
		case 0:
			rec.Targets[k] = map[string]int64{}
		case 1:
			for j := 1 + r.Intn(3); j > 0; j-- {
				rec.addTarget(k, randomName(r), randomCount(r))
			}
		}
	}
	return rec
}

func randomDB(r *rand.Rand) *DB {
	db := NewDB([]string{"", "p.c", "espresso.c"}[r.Intn(3)])
	if r.Intn(3) == 0 {
		db.Epoch = r.Intn(5)
	}
	for i := r.Intn(5); i > 0; i-- {
		fp := fmt.Sprintf("%016x", r.Intn(3))
		gen := r.Intn(4)
		if r.Intn(25) == 0 {
			gen = -1 - r.Intn(40)
		}
		db.Records[RecordKey{fp, gen}] = randomRecord(r, fp, gen)
	}
	return db
}

// mutate applies a few random byte and line edits, aimed at the
// decoder's field splitting and number parsing.
func mutate(r *rand.Rand, s string) string {
	inserts := []string{" ", "\n", "\t", "\r", "\v", "#", "-", "+", "0", "9", "f", "x", "\u00a0", "\u0085", "\u3000", "\xff", "runs 1\n", "gen -3\n"}
	for i := 1 + r.Intn(3); i > 0; i-- {
		lines := strings.SplitAfter(s, "\n")
		switch at := r.Intn(len(s) + 1); r.Intn(5) {
		case 0:
			if at < len(s) {
				s = s[:at] + s[at+1:]
			}
		case 1:
			s = s[:at] + inserts[r.Intn(len(inserts))] + s[at:]
		case 2:
			l := r.Intn(len(lines))
			s = strings.Join(lines[:l+1], "") + lines[l] + strings.Join(lines[l+1:], "")
		case 3:
			a, b := r.Intn(len(lines)), r.Intn(len(lines))
			lines[a], lines[b] = lines[b], lines[a]
			s = strings.Join(lines, "")
		case 4:
			s = s[:at]
		}
	}
	return s
}

// TestCodecMatchesOracle pins the production codec to the historical
// fmt/strings.Fields one (format_oracle_test.go) on the golden files,
// the decoder fuzz seeds, random records and random edits of their
// encodings.
func TestCodecMatchesOracle(t *testing.T) {
	for _, name := range []string{"golden.profdb", "golden_merge.profsnap"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		checkCodecAgrees(t, string(data))
	}
	for _, s := range loadDecoderSeeds(t) {
		checkCodecAgrees(t, s)
	}
	r := rand.New(rand.NewSource(1))
	iters := 3000
	if testing.Short() {
		iters = 300
	}
	for i := 0; i < iters; i++ {
		db := randomDB(r)
		checkDBEncodersAgree(t, db)
		var sb strings.Builder
		oracleWriteTo(db, &sb)
		checkCodecAgrees(t, sb.String())
		checkCodecAgrees(t, mutate(r, sb.String()))
		for _, rec := range db.Records {
			sb.Reset()
			checkSnapshotEncodersAgree(t, db.Program, rec)
			oracleWriteSnapshot(&sb, db.Program, rec)
			checkCodecAgrees(t, sb.String())
			checkCodecAgrees(t, mutate(r, sb.String()))
		}
	}
}

// FuzzProfDBCodecOracle is TestCodecMatchesOracle's decoder property
// under the fuzzer.
func FuzzProfDBCodecOracle(f *testing.F) {
	for _, s := range loadDecoderSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		checkCodecAgrees(t, data)
	})
}

func cloneRecord(r *Record) *Record {
	c := *r
	c.Funcs = maps.Clone(r.Funcs)
	c.Sites = maps.Clone(r.Sites)
	c.Targets = make(map[SiteKey]map[string]int64, len(r.Targets))
	for k, ts := range r.Targets {
		c.Targets[k] = maps.Clone(ts)
	}
	return &c
}

func snapshotBytes(rec *Record) string {
	var sb strings.Builder
	WriteSnapshot(&sb, "", rec)
	return sb.String()
}

// TestRecordEqualMatchesSerialization: Record.Equal says "equal"
// exactly when two records serialize to the same bytes. The edits are
// built from Record's fields by reflection — every string and integer
// field is changed, every map field must have hand-written edits — so
// a field added to Record fails here until Equal and this test know
// about it.
func TestRecordEqualMatchesSerialization(t *testing.T) {
	site := SiteKey{Caller: "main", Callee: "###", Ordinal: 0, PosHash: 0x33}
	leaf := SiteKey{Caller: "work", Callee: "leaf", Ordinal: 1, PosHash: 0x22}
	base := NewRecord("cc01", 2)
	base.Runs, base.IL, base.Control, base.Calls, base.Returns, base.MaxStack = 5, 1001, 401, 61, 61, 5
	base.Funcs = map[string]int64{"main": 8, "work": 22, "leaf": 3}
	base.Sites = map[SiteKey]int64{site: 22, leaf: 3}
	base.Targets[site] = map[string]int64{"work": 4, "leaf": 2}

	mapEdits := map[string]map[string]func(r *Record){
		"Funcs": {
			"count": func(r *Record) { r.Funcs["leaf"]++ },
			"zero":  func(r *Record) { r.Funcs["new"] = 0 },
			"gone":  func(r *Record) { delete(r.Funcs, "leaf") },
		},
		"Sites": {
			"count": func(r *Record) { r.Sites[site]++ },
			"gone":  func(r *Record) { delete(r.Sites, leaf) },
			"moved": func(r *Record) { r.Sites[SiteKey{Caller: "main", Callee: "work", PosHash: 0x12}] = 22 },
		},
		"Targets": {
			"count":     func(r *Record) { r.Targets[site]["leaf"]++ },
			"added":     func(r *Record) { r.Targets[site]["main"] = 1 },
			"gone":      func(r *Record) { delete(r.Targets[site], "leaf") },
			"all gone":  func(r *Record) { delete(r.Targets, site) },
			"new empty": func(r *Record) { r.Targets[leaf] = map[string]int64{} },
			"emptied":   func(r *Record) { r.Targets[site] = map[string]int64{} },
		},
	}
	edits := map[string]func(r *Record){"none": func(*Record) {}}
	typ := reflect.TypeOf(Record{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		switch field.Type.Kind() {
		case reflect.String:
			edits[field.Name] = func(r *Record) {
				v := reflect.ValueOf(r).Elem().Field(i)
				v.SetString(v.String() + "x")
			}
		case reflect.Int, reflect.Int64:
			edits[field.Name] = func(r *Record) {
				v := reflect.ValueOf(r).Elem().Field(i)
				v.SetInt(v.Int() + 1)
			}
		case reflect.Map:
			fieldEdits, ok := mapEdits[field.Name]
			if !ok {
				t.Fatalf("Record.%s: map field without edits; cover it here and in Record.Equal", field.Name)
			}
			delete(mapEdits, field.Name)
			for name, edit := range fieldEdits {
				edits[field.Name+" "+name] = edit
			}
		default:
			t.Fatalf("Record.%s: field of kind %s this test cannot edit; cover it here and in Record.Equal", field.Name, field.Type.Kind())
		}
	}
	for name := range mapEdits {
		t.Errorf("edits for Record.%s, which is not a map field of Record", name)
	}
	check := func(name string, a, b *Record) {
		t.Helper()
		want := snapshotBytes(a) == snapshotBytes(b)
		if got := a.Equal(b); got != want {
			t.Errorf("%s: Equal = %v, serializations equal = %v", name, got, want)
		}
	}
	for name, edit := range edits {
		b := cloneRecord(base)
		edit(b)
		check(name, base, b)
		check(name+" (swapped)", b, base)
	}
	// Random records, against their copies and each other.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randomRecord(r, "f", 1), randomRecord(r, "f", 1)
		check("random copy", a, cloneRecord(a))
		check("random pair", a, b)
	}
}
