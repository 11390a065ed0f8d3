package profdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"inlinec/internal/chaos"
)

// testRec builds a small but non-trivial record.
func testRec(fp string, gen, runs int) *Record {
	r := NewRecord(fp, gen)
	r.Runs = runs
	r.IL = int64(1000 * runs)
	r.Calls = int64(40 * runs)
	r.Funcs = map[string]int64{"main": int64(10 * runs), "work": int64(30 * runs)}
	r.Sites = map[SiteKey]int64{
		{Caller: "main", Callee: "work", Ordinal: 0, PosHash: 0xabc}: int64(30 * runs),
	}
	return r
}

func mustOpen(t *testing.T, fsys chaos.FS, path string) (*Store, *Recovery) {
	t.Helper()
	s, rep, err := Open(fsys, path, "prog")
	if err != nil {
		t.Fatalf("Open: %v (recovery: %s)", err, rep)
	}
	return s, rep
}

func mustIngest(t *testing.T, s *Store, rec *Record) {
	t.Helper()
	if err := s.Ingest("prog", rec); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
}

func runsAt(s *Store, fp string, gen int) int {
	if r, ok := s.DB().Records[RecordKey{fp, gen}]; ok {
		return r.Runs
	}
	return 0
}

// TestStoreRoundTrip: ingest, close, reopen — everything persists and
// the recovery is clean.
func TestStoreRoundTrip(t *testing.T) {
	m := chaos.NewMemFS()
	s, rep := mustOpen(t, m, "d/p.profdb")
	if !rep.Clean() {
		t.Errorf("fresh open not clean: %s", rep)
	}
	mustIngest(t, s, testRec("aa", 1, 3))
	mustIngest(t, s, testRec("aa", 2, 5))
	mustIngest(t, s, testRec("bb", 1, 2))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rep2 := mustOpen(t, m, "d/p.profdb")
	if !rep2.Clean() {
		t.Errorf("reopen after clean shutdown not clean: %s", rep2)
	}
	if rep2.ReplayedRecords != 0 {
		t.Errorf("clean shutdown left %d records to replay", rep2.ReplayedRecords)
	}
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("aa/1 runs = %d, want 3", got)
	}
	if got := runsAt(s2, "aa", 2); got != 5 {
		t.Errorf("aa/2 runs = %d, want 5", got)
	}
	if got := runsAt(s2, "bb", 1); got != 2 {
		t.Errorf("bb/1 runs = %d, want 2", got)
	}
}

// TestStoreAckSurvivesCrash: a record whose Ingest returned nil is
// durable at that instant — kill -9 before any flush must not lose it.
func TestStoreAckSurvivesCrash(t *testing.T) {
	m := chaos.NewMemFS()
	s, _ := mustOpen(t, m, "d/p.profdb")
	mustIngest(t, s, testRec("aa", 1, 3))
	mustIngest(t, s, testRec("aa", 1, 4)) // same key accumulates
	m.Crash(nil)                          // no Flush, no Close

	s2, rep := mustOpen(t, m, "d/p.profdb")
	if rep.ReplayedRecords != 2 {
		t.Errorf("replayed %d records, want 2 (recovery: %s)", rep.ReplayedRecords, rep)
	}
	if got := runsAt(s2, "aa", 1); got != 7 {
		t.Errorf("aa/1 runs after crash = %d, want 7", got)
	}
}

// TestStoreTruncatedWAL: a WAL cut mid-frame (torn append) replays its
// intact prefix, discards the tail, and reports the damage.
func TestStoreTruncatedWAL(t *testing.T) {
	m := chaos.NewMemFS()
	s, _ := mustOpen(t, m, "d/p.profdb")
	mustIngest(t, s, testRec("aa", 1, 3))
	mustIngest(t, s, testRec("aa", 2, 5))
	wal, err := m.ReadFile("d/p.profdb.wal")
	if err != nil {
		t.Fatal(err)
	}
	// Cut the second frame in half.
	first := bytes.Index(wal, []byte("\nrec "))
	second := bytes.Index(wal[first+1:], []byte("\nrec "))
	if first < 0 || second < 0 {
		t.Fatalf("wal does not hold two frames:\n%s", wal)
	}
	cut := first + 1 + second + 1 + 10
	m.WriteFile("d/p.profdb.wal", wal[:cut])

	s2, rep := mustOpen(t, m, "d/p.profdb")
	if rep.ReplayedRecords != 1 || rep.DiscardedBytes == 0 {
		t.Errorf("recovery = %s; want 1 replayed record and a discarded tail", rep)
	}
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("aa/1 runs = %d, want 3", got)
	}
	if got := runsAt(s2, "aa", 2); got != 0 {
		t.Errorf("aa/2 runs = %d, want 0 (frame was torn)", got)
	}
	if rep.Clean() {
		t.Error("recovery from a torn WAL reported clean")
	}
}

// TestStoreGarbageTailWAL: checksummed frames reject a bit-flipped
// tail instead of ingesting corrupt counts.
func TestStoreGarbageTailWAL(t *testing.T) {
	m := chaos.NewMemFS()
	s, _ := mustOpen(t, m, "d/p.profdb")
	mustIngest(t, s, testRec("aa", 1, 3))
	mustIngest(t, s, testRec("aa", 2, 5))
	// Flip bytes inside the last frame's payload: framing stays aligned,
	// the CRC must catch it.
	if err := m.CorruptTail("d/p.profdb.wal", 8); err != nil {
		t.Fatal(err)
	}

	s2, rep := mustOpen(t, m, "d/p.profdb")
	if rep.ReplayedRecords != 1 || rep.DiscardedBytes == 0 {
		t.Errorf("recovery = %s; want 1 replayed record and a discarded corrupt tail", rep)
	}
	if got := runsAt(s2, "aa", 2); got != 0 {
		t.Errorf("corrupt frame was ingested anyway: aa/2 runs = %d", got)
	}
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("aa/1 runs = %d, want 3", got)
	}
}

// TestStoreWholeWALGarbage: a WAL whose header is destroyed is
// discarded wholesale; the snapshot still loads.
func TestStoreWholeWALGarbage(t *testing.T) {
	m := chaos.NewMemFS()
	s, _ := mustOpen(t, m, "d/p.profdb")
	mustIngest(t, s, testRec("aa", 1, 3))
	if err := s.Flush(); err != nil { // aa/1 reaches the snapshot
		t.Fatal(err)
	}
	mustIngest(t, s, testRec("aa", 2, 5)) // only in the WAL
	m.WriteFile("d/p.profdb.wal", []byte("\x00\x01total junk\xff"))

	s2, rep := mustOpen(t, m, "d/p.profdb")
	if rep.DiscardedBytes == 0 {
		t.Errorf("recovery = %s; want discarded bytes for the junk WAL", rep)
	}
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("snapshotted record lost: aa/1 runs = %d, want 3", got)
	}
}

// TestStoreTornSnapshotUsesBackup: a half-written snapshot (torn
// rename) falls back to the backup plus the log — no acked record lost.
func TestStoreTornSnapshotUsesBackup(t *testing.T) {
	m := chaos.NewMemFS()
	s, _ := mustOpen(t, m, "d/p.profdb")
	mustIngest(t, s, testRec("aa", 1, 3))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, testRec("bb", 1, 2)) // post-flush: lives in the WAL

	// Tear the primary as a mid-rename crash would: keep a prefix.
	snap, err := m.ReadFile("d/p.profdb")
	if err != nil {
		t.Fatal(err)
	}
	m.WriteFile("d/p.profdb", snap[:len(snap)/2])

	s2, rep := mustOpen(t, m, "d/p.profdb")
	if !rep.SnapshotCorrupt || !rep.UsedBackup {
		t.Errorf("recovery = %s; want snapshot-corrupt + used-backup", rep)
	}
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("aa/1 runs = %d, want 3", got)
	}
	if got := runsAt(s2, "bb", 1); got != 2 {
		t.Errorf("bb/1 (acked into WAL) runs = %d, want 2", got)
	}
	// The recovery flush must have rebuilt a parseable primary.
	s3, rep3 := mustOpen(t, m, "d/p.profdb")
	if !rep3.Clean() || rep3.UsedBackup {
		t.Errorf("second recovery not clean: %s", rep3)
	}
	if got := runsAt(s3, "bb", 1); got != 2 {
		t.Errorf("bb/1 after repair = %d, want 2", got)
	}
}

// TestStoreEpochSkipsStaleWAL: a crash landing between snapshot
// install and WAL rotation leaves a snapshot at epoch E+1 next to a
// log at epoch E whose frames the snapshot already embeds. The epoch
// rule must skip that log — replaying it would double-count.
func TestStoreEpochSkipsStaleWAL(t *testing.T) {
	m := chaos.NewMemFS()
	s, _ := mustOpen(t, m, "d/p.profdb")
	mustIngest(t, s, testRec("aa", 1, 3))
	preWAL, err := m.ReadFile("d/p.profdb.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the crash window: new snapshot durable, rotation
	// undone — the old epoch-E log (holding aa/1) back in place.
	m.WriteFile("d/p.profdb.wal", preWAL)
	m.Remove("d/p.profdb.wal.prev")

	s2, rep := mustOpen(t, m, "d/p.profdb")
	if rep.SkippedWALs == 0 {
		t.Errorf("recovery = %s; want the stale-epoch WAL skipped", rep)
	}
	if rep.ReplayedRecords != 0 {
		t.Errorf("replayed %d records from an already-embedded WAL", rep.ReplayedRecords)
	}
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("aa/1 runs = %d, want 3 (double-counted or lost)", got)
	}
}

// TestStoreNAKPoisonsWAL: after a failed append nothing is acked until
// the log is re-established, and records NAKed by the failure are not
// silently half-applied.
func TestStoreNAKPoisonsWAL(t *testing.T) {
	m := chaos.NewMemFS()
	inj := chaos.NewInjector(m, chaos.Config{Seed: 11, SyncErr: 1})
	inj.SetEnabled(false)
	s, _ := mustOpen(t, inj, "d/p.profdb")
	mustIngest(t, s, testRec("aa", 1, 3))

	inj.SetEnabled(true)
	err := s.Ingest("prog", testRec("bb", 1, 9))
	if err == nil {
		t.Fatal("ingest acked despite a failed WAL fsync")
	}
	if got := runsAt(s, "bb", 1); got != 0 {
		t.Errorf("NAKed record applied to memory: bb/1 runs = %d", got)
	}

	inj.SetEnabled(false)
	mustIngest(t, s, testRec("cc", 1, 4)) // triggers recovery flush + rotation

	m.Crash(nil)
	s2, rep := mustOpen(t, m, "d/p.profdb")
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("aa/1 runs = %d, want 3 (recovery: %s)", got, rep)
	}
	if got := runsAt(s2, "cc", 1); got != 4 {
		t.Errorf("cc/1 runs = %d, want 4 — acked after poisoning must survive (recovery: %s)", got, rep)
	}
}

// TestStoreBatchValidation: a batch mixes acceptable and invalid
// records; only valid ones are acked and applied.
func TestStoreBatchValidation(t *testing.T) {
	m := chaos.NewMemFS()
	s, _ := mustOpen(t, m, "d/p.profdb")
	recs := []*Record{
		testRec("aa", 1, 3),
		testRec("", 1, 3),   // no fingerprint
		testRec("bb", 1, 0), // zero runs
		testRec("cc", 1, 2),
		testRec("dd", -40, 2), // negative generation
	}
	errs := s.IngestBatch([]string{"prog", "prog", "prog", "other", "prog"}, recs)
	if errs[0] != nil {
		t.Errorf("valid record rejected: %v", errs[0])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Error("invalid records were acked")
	}
	if errs[3] == nil {
		t.Error("record for a different program was acked")
	}
	if errs[4] == nil {
		t.Error("record with a negative generation was acked")
	}
	if got := runsAt(s, "cc", 1); got != 0 {
		t.Errorf("mismatched-program record applied: cc/1 runs = %d", got)
	}
	m.Crash(nil)
	s2, _ := mustOpen(t, m, "d/p.profdb")
	if got := runsAt(s2, "aa", 1); got != 3 {
		t.Errorf("aa/1 runs = %d, want 3", got)
	}
	if got := runsAt(s2, "dd", -40); got != 0 {
		t.Errorf("negative-generation record recovered: dd/-40 runs = %d", got)
	}
}

// TestStoreDropsNegativeGenerations: stores written before negative
// generations were rejected may hold one in their snapshot, backup and
// WAL. Open must keep every other record — not discard the snapshot as
// corrupt and start empty — leave the negative ones out, report them,
// and rewrite the files without them.
func TestStoreDropsNegativeGenerations(t *testing.T) {
	m := chaos.NewMemFS()
	db := NewDB("prog")
	db.Epoch = 1
	for _, rec := range []*Record{testRec("aa", 1, 3), testRec("f", -40, 2), testRec("bb", 2, 4)} {
		db.Records[RecordKey{rec.Fingerprint, rec.Gen}] = rec
	}
	var snap bytes.Buffer
	db.WriteTo(&snap)
	if !bytes.Contains(snap.Bytes(), []byte("\nrecord f -40\n")) {
		t.Fatalf("snapshot lacks the negative-generation record:\n%s", snap.Bytes())
	}
	m.WriteFile("d/p.profdb", snap.Bytes())
	m.WriteFile("d/p.profdb.bak", snap.Bytes())
	wal := bytes.NewBuffer(walHeader(1))
	for _, rec := range []*Record{testRec("g", -3, 1), testRec("cc", 3, 5)} {
		var payload bytes.Buffer
		WriteSnapshot(&payload, "prog", rec)
		appendWALFrame(wal, payload.Bytes())
	}
	m.WriteFile("d/p.profdb.wal", wal.Bytes())

	s, rep := mustOpen(t, m, "d/p.profdb")
	if rep.SnapshotCorrupt || rep.UsedBackup || rep.DroppedNegativeGens != 1 ||
		rep.ReplayedRecords != 1 || rep.DiscardedRecords != 1 || rep.Clean() {
		t.Errorf("recovery = %s (%+v); want the snapshot loaded, 1 record dropped, 1 frame replayed, 1 discarded", rep, *rep)
	}
	for _, want := range []struct {
		fp        string
		gen, runs int
	}{{"aa", 1, 3}, {"bb", 2, 4}, {"cc", 3, 5}, {"f", -40, 0}, {"g", -3, 0}} {
		if got := runsAt(s, want.fp, want.gen); got != want.runs {
			t.Errorf("%s/%d runs = %d, want %d", want.fp, want.gen, got, want.runs)
		}
	}
	for _, name := range []string{"d/p.profdb", "d/p.profdb.bak"} {
		data, err := m.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(" -40\n")) {
			t.Errorf("%s still holds the negative-generation record:\n%s", name, data)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, m, "d/p.profdb")
	if !rep.Clean() || len(s2.DB().Records) != 3 {
		t.Errorf("reopen: recovery = %s, %d records; want clean with 3", rep, len(s2.DB().Records))
	}
}

// TestStoreRandomizedCrashes drives seeded schedules of ingests,
// flushes, and torn crashes, checking after every restart that the
// store loads and that per-key recovered runs lie in [acked, attempted].
func TestStoreRandomizedCrashes(t *testing.T) {
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := chaos.NewMemFS()
			inj := chaos.NewInjector(m, chaos.Config{
				Seed:       seed * 7,
				WriteErr:   0.05,
				SyncErr:    0.05,
				RenameErr:  0.03,
				TornRename: 0.03,
				OpenErr:    0.02,
			})
			acked := map[RecordKey]int{}
			attempted := map[RecordKey]int{}

			for episode := 0; episode < 4; episode++ {
				inj.SetEnabled(false)
				s, _, err := Open(inj, "d/p.profdb", "prog")
				if err != nil {
					t.Fatalf("episode %d: store failed to open: %v", episode, err)
				}
				for k, want := range acked {
					if got := runsAt(s, k.Fingerprint, k.Gen); got < want {
						t.Fatalf("episode %d: %v runs = %d, below acked %d", episode, k, got, want)
					}
				}
				for k := range s.DB().Records {
					if got, max := runsAt(s, k.Fingerprint, k.Gen), attempted[k]; got > max {
						t.Fatalf("episode %d: %v runs = %d, above attempted %d", episode, k, got, max)
					}
				}

				inj.SetEnabled(true)
				ops := 5 + rng.Intn(15)
				for i := 0; i < ops; i++ {
					switch rng.Intn(10) {
					case 0:
						s.Flush() // may fail under injection; store must cope
					default:
						fp := fmt.Sprintf("f%d", rng.Intn(3))
						gen := 1 + rng.Intn(2)
						runs := 1 + rng.Intn(4)
						k := RecordKey{fp, gen}
						attempted[k] += runs
						if err := s.Ingest("prog", testRec(fp, gen, runs)); err == nil {
							acked[k] += runs
						}
					}
				}
				// Tear the world down mid-flight: torn tails allowed.
				m.Crash(rand.New(rand.NewSource(seed*31 + int64(episode))))
			}

			// Final restart with a healthy filesystem.
			inj.SetEnabled(false)
			s, _, err := Open(inj, "d/p.profdb", "prog")
			if err != nil {
				t.Fatalf("final open: %v", err)
			}
			for k, want := range acked {
				if got := runsAt(s, k.Fingerprint, k.Gen); got < want {
					t.Fatalf("final: %v runs = %d, below acked %d", k, got, want)
				}
			}
			for k := range s.DB().Records {
				if got, max := runsAt(s, k.Fingerprint, k.Gen), attempted[k]; got > max {
					t.Fatalf("final: %v runs = %d, above attempted %d", k, got, max)
				}
			}
		})
	}
}
