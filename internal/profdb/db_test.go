package profdb_test

import (
	"fmt"
	"strings"
	"testing"

	"inlinec"
	"inlinec/internal/profdb"
	"inlinec/internal/profile"
)

// srcV1 is the baseline program: poly calls add twice (ordinals 0 and 1)
// so stable keys must disambiguate repeated calls to the same callee.
const srcV1 = `int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int poly(int x) { return add(mul(x, x), add(x, 1)); }
int main() { int i; int s; s = 0; for (i = 0; i < 50; i++) { s = s + poly(i); } return s & 255; }
`

// srcV2 edits srcV1 the way real source drifts: a new function with a
// call is inserted ahead of everything (shifting every raw call-site id),
// and poly's second add call is gone (so one old key must be dropped, not
// misattributed to whichever site now owns its raw id).
const srcV2 = `int head(int x) { return mul(x, 2); }
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int poly(int x) { return add(mul(x, x), x + 1); }
int main() { int i; int s; s = 0; for (i = 0; i < 50; i++) { s = s + head(poly(i)); } return s & 255; }
`

func compileAndProfile(t *testing.T, src string, runs int) (*inlinec.Program, *inlinec.Profile) {
	t.Helper()
	p, err := inlinec.Compile("prog.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inputs := make([]inlinec.Input, runs)
	prof, err := p.ProfileInputs(inputs...)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return p, prof
}

func profileBytes(t *testing.T, prof *inlinec.Profile) string {
	t.Helper()
	var sb strings.Builder
	if _, err := prof.WriteTo(&sb); err != nil {
		t.Fatalf("profile write: %v", err)
	}
	return sb.String()
}

func dbBytes(t *testing.T, db *profdb.DB) string {
	t.Helper()
	var sb strings.Builder
	if _, err := db.WriteTo(&sb); err != nil {
		t.Fatalf("db write: %v", err)
	}
	return sb.String()
}

// TestSnapshotResolveExact proves the exact path is lossless: profile →
// snapshot → ingest → merge → resolve on the same module reproduces the
// in-process profile byte for byte.
func TestSnapshotResolveExact(t *testing.T) {
	p, prof := compileAndProfile(t, srcV1, 3)
	rec, err := p.Snapshot(prof, 0)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	db := profdb.NewDB("prog.c")
	if err := db.Ingest(rec); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	got, report := p.ProfileFromDB(db, profdb.DefaultMergeParams())
	if !report.Clean() {
		t.Fatalf("same-module consume reported staleness:\n%s", report)
	}
	if a, b := profileBytes(t, got), profileBytes(t, prof); a != b {
		t.Errorf("round-tripped profile differs:\n%s\nvs\n%s", a, b)
	}
}

// TestIngestOrderInvariance: the same record set ingested in any order
// serializes to an identical database and produces an identical inline
// decision list.
func TestIngestOrderInvariance(t *testing.T) {
	p, _ := compileAndProfile(t, srcV1, 1)
	var recs []*profdb.Record
	for i := 0; i < 4; i++ {
		// Distinct per-record run counts so order mistakes would show.
		_, prof := compileAndProfile(t, srcV1, i+1)
		rec, err := p.Snapshot(prof, i%2) // two generations
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		recs = append(recs, rec)
	}
	build := func(order []int) (*profdb.DB, string) {
		db := profdb.NewDB("prog.c")
		for _, i := range order {
			if err := db.Ingest(recs[i]); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
		return db, dbBytes(t, db)
	}
	db1, ser1 := build([]int{0, 1, 2, 3})
	db2, ser2 := build([]int{3, 1, 0, 2})
	if ser1 != ser2 {
		t.Fatalf("serialized database depends on insertion order:\n%s\nvs\n%s", ser1, ser2)
	}
	decisions := func(db *profdb.DB) string {
		q, err := inlinec.Compile("prog.c", srcV1)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		prof, _ := q.ProfileFromDB(db, profdb.DefaultMergeParams())
		params := inlinec.DefaultParams()
		params.WeightThreshold = 1
		res, err := q.Inline(prof, params)
		if err != nil {
			t.Fatalf("inline: %v", err)
		}
		return fmt.Sprintf("%v\n%+v", res.Order, res.Decisions)
	}
	if d1, d2 := decisions(db1), decisions(db2); d1 != d2 {
		t.Errorf("decision list depends on insertion order:\n%s\nvs\n%s", d1, d2)
	}
}

// TestRoundTripSerialization: write → read → write is the identity.
func TestRoundTripSerialization(t *testing.T) {
	p1, prof1 := compileAndProfile(t, srcV1, 2)
	p2, prof2 := compileAndProfile(t, srcV2, 3)
	db := profdb.NewDB("prog.c")
	for gen, pair := range []struct {
		p    *inlinec.Program
		prof *inlinec.Profile
	}{{p1, prof1}, {p2, prof2}} {
		rec, err := pair.p.Snapshot(pair.prof, gen)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if err := db.Ingest(rec); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	ser := dbBytes(t, db)
	back, err := profdb.ReadDB(strings.NewReader(ser))
	if err != nil {
		t.Fatalf("read: %v\n%s", err, ser)
	}
	if ser2 := dbBytes(t, back); ser2 != ser {
		t.Errorf("round trip changed serialization:\n%s\nvs\n%s", ser, ser2)
	}
	if back.Program != "prog.c" || len(back.Records) != 2 {
		t.Errorf("round trip lost structure: program=%q records=%d", back.Program, len(back.Records))
	}
}

// TestStaleDetection is the misattribution test: a v1 profile consumed by
// the edited v2 program must land its weights on the right (caller,
// callee) arcs despite every raw id having shifted, and the key that no
// longer exists must be dropped and reported, not applied to whichever
// site inherited its raw id.
func TestStaleDetection(t *testing.T) {
	p1, prof1 := compileAndProfile(t, srcV1, 2)
	rec, err := p1.Snapshot(prof1, 0)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	db := profdb.NewDB("prog.c")
	if err := db.Ingest(rec); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	p2, err := inlinec.Compile("prog.c", srcV2)
	if err != nil {
		t.Fatalf("compile v2: %v", err)
	}
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatal("edited program has the same fingerprint")
	}
	// Trust the stale version fully so weights pass through unscaled and
	// are easy to check.
	params := profdb.MergeParams{StaleWeight: 1}
	prof2, report := p2.ProfileFromDB(db, params)
	if report.Clean() {
		t.Fatal("consuming a stale profile reported clean")
	}
	if report.Merge.ExactRecords != 0 || report.Merge.StaleRecords != 1 {
		t.Errorf("record accounting: %+v", report.Merge)
	}
	// poly's second call to add is gone in v2: exactly that key drops.
	if report.Resolve.DroppedSites != 1 {
		t.Errorf("dropped sites = %d, want 1 (%v)", report.Resolve.DroppedSites, report.Resolve.Dropped)
	}
	if len(report.Resolve.Dropped) != 1 || !strings.Contains(report.Resolve.Dropped[0], "poly add 1") {
		t.Errorf("dropped list: %v, want poly->add ordinal 1", report.Resolve.Dropped)
	}
	// The head insertion shifted every line, so survivors resolve as moved.
	if report.Resolve.MovedSites == 0 || report.Resolve.ExactSites != 0 {
		t.Errorf("site accounting: %+v", report.Resolve)
	}
	// No misattribution: every remapped weight sits on an arc whose
	// caller/callee match the stable key it came from. head's mul call
	// (new in v2, id-colliding with some v1 site) must carry no weight.
	g := p2.CallGraph(prof2)
	keys2 := profdb.ModuleKeys(p2.Module)
	for id, n := range prof2.SiteCounts {
		a := g.Arc(id)
		if a == nil {
			t.Fatalf("profile references unknown arc %d", id)
		}
		k, ok := keys2.Key(id)
		if !ok {
			t.Fatalf("no stable key for arc %d", id)
		}
		if a.Caller.Name != k.Caller {
			t.Errorf("weight %d attributed to caller %s, key says %s", n, a.Caller.Name, k.Caller)
		}
		if a.Caller.Name == "head" || a.Callee.Name == "head" {
			t.Errorf("stale profile put weight %d on v2-only function head (site %d)", n, id)
		}
	}
	// The surviving poly->add weight equals v1's inner add(x, 1) count
	// (100 calls over 2 runs), remapped onto v2's sole poly->add site.
	var polyAdd int64
	for id, n := range prof2.SiteCounts {
		if k, _ := keys2.Key(id); k.Caller == "poly" && k.Callee == "add" {
			polyAdd += n
		}
	}
	if polyAdd != 100 {
		t.Errorf("poly->add remapped weight = %d, want 100", polyAdd)
	}
}

// TestDecayFreshDominates: with a half-life set, newer generations carry
// exponentially more weight than older ones.
func TestDecayFreshDominates(t *testing.T) {
	p, prof := compileAndProfile(t, srcV1, 4)
	old, err := p.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.Snapshot(prof, 8)
	if err != nil {
		t.Fatal(err)
	}
	db := profdb.NewDB("prog.c")
	if err := db.Ingest(old); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(fresh); err != nil {
		t.Fatal(err)
	}
	merged, _ := db.Merge(p.Fingerprint(), profdb.MergeParams{HalfLifeGens: 4})
	// gen 8 weighs 1, gen 0 weighs 0.5^(8/4) = 0.25: 4 + 1 runs.
	if merged.Runs != 5 {
		t.Errorf("decayed runs = %d, want 5 (4*1 + 4*0.25)", merged.Runs)
	}
	wantIL := int64(float64(prof.TotalIL)*1.25 + 0.5)
	if merged.IL != wantIL {
		t.Errorf("decayed IL = %d, want %d", merged.IL, wantIL)
	}
	// Without decay the two generations sum exactly.
	flat, _ := db.Merge(p.Fingerprint(), profdb.MergeParams{})
	if flat.Runs != 8 || flat.IL != 2*prof.TotalIL {
		t.Errorf("flat merge runs=%d IL=%d, want 8 and %d", flat.Runs, flat.IL, 2*prof.TotalIL)
	}
}

// TestStaleWeightZeroDrops: StaleWeight 0 removes other-version records
// entirely instead of down-weighting them.
func TestStaleWeightZeroDrops(t *testing.T) {
	p1, prof1 := compileAndProfile(t, srcV1, 2)
	p2, prof2 := compileAndProfile(t, srcV2, 3)
	db := profdb.NewDB("prog.c")
	r1, _ := p1.Snapshot(prof1, 0)
	r2, _ := p2.Snapshot(prof2, 0)
	if err := db.Ingest(r1); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(r2); err != nil {
		t.Fatal(err)
	}
	merged, stats := db.Merge(p2.Fingerprint(), profdb.MergeParams{StaleWeight: 0})
	if stats.DroppedRecords != 1 || stats.StaleRecords != 0 {
		t.Errorf("stats %+v, want 1 dropped", stats)
	}
	if merged.Runs != 3 || merged.IL != prof2.TotalIL {
		t.Errorf("merge leaked stale data: runs=%d IL=%d", merged.Runs, merged.IL)
	}
}

// TestCompact folds generations without changing what a merge sees.
func TestCompact(t *testing.T) {
	p, prof := compileAndProfile(t, srcV1, 2)
	db := profdb.NewDB("prog.c")
	for gen := 0; gen < 3; gen++ {
		rec, err := p.Snapshot(prof, gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	params := profdb.MergeParams{HalfLifeGens: 2}
	before, _ := db.Merge(p.Fingerprint(), params)
	removed := db.Compact(params)
	if removed != 2 {
		t.Errorf("compact removed %d records, want 2", removed)
	}
	if len(db.Records) != 1 {
		t.Errorf("compacted store has %d records, want 1", len(db.Records))
	}
	after, _ := db.Merge(p.Fingerprint(), params)
	var a, b strings.Builder
	profdb.WriteSnapshot(&a, "prog.c", before)
	profdb.WriteSnapshot(&b, "prog.c", after)
	if a.String() != b.String() {
		t.Errorf("compaction changed the merged view:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestTruncatedRunsSurviveTheDB: exit()-truncated runs stay visible after
// snapshot/merge/resolve.
func TestTruncatedRunsSurviveTheDB(t *testing.T) {
	src := `extern void exit(int c);
int f(int x) { if (x > 2) { exit(7); } return x; }
int main() { int i; int s; s = 0; for (i = 0; i < 9; i++) { s = s + f(i); } return s; }
`
	p, prof := compileAndProfile(t, src, 2)
	if prof.TotalTruncated != 2 {
		t.Fatalf("TotalTruncated = %d, want 2 (every run exits early)", prof.TotalTruncated)
	}
	rec, err := p.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := profdb.NewDB("t.c")
	if err := db.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	got, report := p.ProfileFromDB(db, profdb.DefaultMergeParams())
	if !report.Clean() {
		t.Fatalf("unexpected staleness: %s", report)
	}
	if got.TotalTruncated != 2 {
		t.Errorf("TotalTruncated after DB round trip = %d, want 2", got.TotalTruncated)
	}
	if !strings.Contains(got.String(), "truncated") {
		t.Errorf("Profile.String does not surface truncation:\n%s", got.String())
	}
}

// TestStrictDecoding: the DB and snapshot decoders reject duplicates,
// garbage, and structural errors with line-numbered messages.
func TestStrictDecoding(t *testing.T) {
	valid := "ILPROFDB 1\nprogram p.c\nrecord abcd 0\nruns 1\nil 10\nfunc main 1\nsite main f 0 00000000 5\nend\n"
	if _, err := profdb.ReadDB(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	bad := []struct{ name, in string }{
		{"empty", ""},
		{"magic", "NOPE 9\n"},
		{"dup scalar", "ILPROFDB 1\nrecord a 0\nruns 1\nruns 2\nend\n"},
		{"dup func", "ILPROFDB 1\nrecord a 0\nruns 1\nfunc f 1\nfunc f 2\nend\n"},
		{"dup site", "ILPROFDB 1\nrecord a 0\nruns 1\nsite a b 0 00000000 1\nsite a b 0 00000000 2\nend\n"},
		{"dup record", "ILPROFDB 1\nrecord a 0\nruns 1\nend\nrecord a 0\nruns 1\nend\n"},
		{"unterminated", "ILPROFDB 1\nrecord a 0\nruns 1\n"},
		{"end outside", "ILPROFDB 1\nend\n"},
		{"unknown directive", "ILPROFDB 1\nrecord a 0\nruns 1\nwat 3\nend\n"},
		{"trailing fields", "ILPROFDB 1\nrecord a 0\nruns 1 junk\nend\n"},
		{"no runs", "ILPROFDB 1\nrecord a 0\nil 5\nend\n"},
		{"bad poshash", "ILPROFDB 1\nrecord a 0\nruns 1\nsite a b 0 zz 1\nend\n"},
	}
	for _, c := range bad {
		if _, err := profdb.ReadDB(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadDB accepted %q", c.name, c.in)
		}
	}
	badSnap := []struct{ name, in string }{
		{"magic", "ILPROFDB 1\n"},
		{"no fingerprint", "ILPROFSNAP 1\nprogram p\ngen 0\nruns 1\n"},
		{"dup gen", "ILPROFSNAP 1\nfingerprint a\ngen 0\ngen 1\nruns 1\n"},
		{"no runs", "ILPROFSNAP 1\nfingerprint a\ngen 0\n"},
	}
	for _, c := range badSnap {
		if _, _, err := profdb.ReadSnapshot(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadSnapshot accepted %q", c.name, c.in)
		}
	}
}

// TestNegativeCountsRejected: every count and total in a record body is
// non-negative, so a snapshot POSTed to ilprofd can never subtract weight
// from the merged store. The error names the offending line.
func TestNegativeCountsRejected(t *testing.T) {
	const snap = "ILPROFSNAP 1\nprogram p.c\nfingerprint f\ngen 0\nruns 1\n"
	for _, c := range []struct{ in, want string }{
		{snap + "site main f 0 1a2b -100\n", "line 6: negative count -100"},
		{snap + "func f -7\n", "line 6: negative count -7"},
		{snap + "il -1\n", "line 6: negative count -1"},
		{snap + "target main f 0 1a2b g -2\n", "line 6: negative count -2"},
		{"ILPROFSNAP 1\nprogram p.c\nfingerprint f\ngen 0\nruns -4\n", "line 5: negative count -4"},
	} {
		_, _, err := profdb.ReadSnapshot(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadSnapshot(%q) = %v, want error containing %q", c.in, err, c.want)
		}
	}
	db := "ILPROFDB 1\nprogram p.c\nrecord abcd 0\nruns 1\nmaxstack -8\nend\n"
	if _, err := profdb.ReadDB(strings.NewReader(db)); err == nil || !strings.Contains(err.Error(), "line 5: negative count -8") {
		t.Errorf("ReadDB accepted a negative maxstack: %v", err)
	}
}

// TestNegativeGenerationsRejected: generations are never negative.
// Decay is measured from the newest generation and MaxGen starts at 0,
// so a store whose newest generation is negative would decay as if
// generation 0 existed. Both decoders reject one with a line-numbered
// error, and DB.Ingest refuses one built in memory.
func TestNegativeGenerationsRejected(t *testing.T) {
	const snap = "ILPROFSNAP 1\nprogram p.c\nfingerprint f\ngen -40\nruns 1\n"
	if _, _, err := profdb.ReadSnapshot(strings.NewReader(snap)); err == nil || !strings.Contains(err.Error(), "line 4: negative generation -40") {
		t.Errorf("ReadSnapshot accepted a negative generation: %v", err)
	}
	const db = "ILPROFDB 1\nprogram p.c\nrecord abcd -40\nruns 1\nend\n"
	if _, err := profdb.ReadDB(strings.NewReader(db)); err == nil || !strings.Contains(err.Error(), "line 3: negative generation -40") {
		t.Errorf("ReadDB accepted a negative generation: %v", err)
	}
	rec := profdb.NewRecord("abcd", -1)
	rec.Runs = 1
	if err := profdb.NewDB("p.c").Ingest(rec); err == nil || !strings.Contains(err.Error(), "negative generation -1") {
		t.Errorf("Ingest accepted a negative generation: %v", err)
	}
}

// TestLegacyRateDirectivesDropped: files written while the sampling
// profiler existed may carry `samplerate <k>` (database records,
// snapshots) or `sampled <k>` (ILPROF profiles). They still load, the
// directive is checked as strictly as before, and re-serializing drops
// it, leaving the counts untouched.
func TestLegacyRateDirectivesDropped(t *testing.T) {
	const oldDB = "ILPROFDB 1\nprogram p.c\nrecord abcd 0\nruns 2\nil 10\ncontrol 0\ncalls 64\nreturns 64\nextern 0\nptr 0\ntruncated 0\nmaxstack 0\nsamplerate 32\nfunc main 2\nsite main f 0 00000000 64\nend\n"
	db, err := profdb.ReadDB(strings.NewReader(oldDB))
	if err != nil {
		t.Fatalf("old database rejected: %v", err)
	}
	var sb strings.Builder
	if _, err := db.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(oldDB, "samplerate 32\n", "", 1); sb.String() != want {
		t.Errorf("re-serialized database:\n%s\nwant:\n%s", sb.String(), want)
	}

	const oldProf = "ILPROF 1\nruns 2\nil 10\ncontrol 0\ncalls 64\nreturns 64\nextern 0\nptr 0\nmaxstack 0\ntruncated 0\nsampled 32\nfunc main 2\nsite 0 64\n"
	prof, err := profile.ReadProfile(strings.NewReader(oldProf))
	if err != nil {
		t.Fatalf("old profile rejected: %v", err)
	}
	sb.Reset()
	if _, err := prof.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(oldProf, "sampled 32\n", "", 1); sb.String() != want {
		t.Errorf("re-serialized profile:\n%s\nwant:\n%s", sb.String(), want)
	}

	// The legacy lines keep their old strictness.
	for _, bad := range []string{
		strings.Replace(oldDB, "samplerate 32", "samplerate 32\nsamplerate 32", 1),
		strings.Replace(oldDB, "samplerate 32", "samplerate -2", 1),
		strings.Replace(oldDB, "samplerate 32", "samplerate x", 1),
	} {
		if _, err := profdb.ReadDB(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadDB accepted %q", bad)
		}
	}
	for _, bad := range []string{
		strings.Replace(oldProf, "sampled 32", "sampled 32\nsampled 32", 1),
		strings.Replace(oldProf, "sampled 32", "sampled 0", 1),
		strings.Replace(oldProf, "sampled 32", "sampled 1 2", 1),
	} {
		if _, err := profile.ReadProfile(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadProfile accepted %q", bad)
		}
	}
}
