package profdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"inlinec/internal/chaos"
	"inlinec/internal/obs"
)

// ErrWAL marks ingest failures caused by the log or the filesystem
// beneath it, as opposed to a rejected payload: the record was valid
// but could not be made durable, so the caller should answer "try
// again later", not "bad request".
var ErrWAL = errors.New("profdb store: write-ahead log unavailable")

// Store is the crash-safe persistence layer behind ilprofd: an
// in-memory DB, an append-only checksummed write-ahead log, and an
// atomically-replaced snapshot with a one-generation backup. The
// durability contract:
//
//   - Ingest returns nil only after the record's WAL frame is fsynced —
//     that is the daemon's ack barrier;
//   - Flush installs a fsynced snapshot (epoch E+1), mirrors the same
//     bytes to <path>.bak once the primary is durable, and only then
//     rotates the WAL (the old log survives one epoch as
//     <path>.wal.prev);
//   - Open replays whatever a crash left: a torn snapshot falls back to
//     the backup, WALs replay when their epoch is >= the loaded
//     snapshot's (frames older than the snapshot are skipped, so nothing
//     double-counts), torn log tails are detected by checksum and
//     discarded with a report.
//
// At every crash instant at most one file is mid-replacement, and each
// file's replacement leaves either the old or the new content durable
// alongside a log/backup pair that covers it — so kill -9 anywhere
// loses no acked record and the store always loads.
//
// Store is single-writer: Ingest/IngestBatch/Flush/Close must be called
// from one goroutine (ilprofd's writer); concurrent readers of DB()
// must be coordinated externally, as the daemon does with its RWMutex.
type Store struct {
	fs   chaos.FS
	path string
	db   *DB

	wal      chaos.File
	walDirty bool // the open log may end in garbage; rotate before next ack

	// Obs, when set, receives durability metrics (WAL fsync latency,
	// batch sizes, flush timings). The single-writer rule covers it: set
	// it right after Open, before the first ingest. A nil registry is a
	// no-op, so instrumented paths never branch.
	Obs *obs.Registry
}

func (s *Store) walPath() string  { return s.path + ".wal" }
func (s *Store) prevPath() string { return s.path + ".wal.prev" }
func (s *Store) bakPath() string  { return s.path + ".bak" }

// Recovery reports what Open found and salvaged.
type Recovery struct {
	// SnapshotCorrupt: the primary snapshot existed but did not parse
	// (torn rename); the backup was consulted.
	SnapshotCorrupt bool
	// UsedBackup: state was restored from the .bak snapshot.
	UsedBackup bool
	// BackupCorrupt: the backup also failed to parse.
	BackupCorrupt bool
	// DroppedNegativeGens counts records with a negative generation in
	// the loaded snapshot. Stores written before generations were
	// checked may hold them; they are left out, and the recovery flush
	// rewrites the snapshot without them.
	DroppedNegativeGens int
	// ReplayedRecords counts WAL frames re-ingested into the store.
	ReplayedRecords int
	// SkippedWALs counts log files whose epoch predates the snapshot —
	// their frames are already embedded, replaying would double-count.
	SkippedWALs int
	// DiscardedRecords counts intact frames whose payload failed to
	// parse or apply (never silently ingested).
	DiscardedRecords int
	// DiscardedBytes counts torn log tails and unusable log files.
	DiscardedBytes int64
}

// Clean reports whether nothing was corrupt and nothing was discarded.
// A clean recovery may still have replayed records (normal after a
// crash between flushes).
func (r *Recovery) Clean() bool {
	return !r.SnapshotCorrupt && !r.BackupCorrupt && r.DroppedNegativeGens == 0 &&
		r.DiscardedRecords == 0 && r.DiscardedBytes == 0
}

// String summarizes the recovery in one line.
func (r *Recovery) String() string {
	var parts []string
	if r.SnapshotCorrupt {
		parts = append(parts, "snapshot corrupt")
	}
	if r.UsedBackup {
		parts = append(parts, "restored from backup")
	}
	if r.BackupCorrupt {
		parts = append(parts, "backup corrupt")
	}
	if r.DroppedNegativeGens > 0 {
		parts = append(parts, fmt.Sprintf("dropped %d negative-generation snapshot record(s)", r.DroppedNegativeGens))
	}
	if r.ReplayedRecords > 0 {
		parts = append(parts, fmt.Sprintf("replayed %d WAL record(s)", r.ReplayedRecords))
	}
	if r.SkippedWALs > 0 {
		parts = append(parts, fmt.Sprintf("skipped %d already-snapshotted WAL(s)", r.SkippedWALs))
	}
	if r.DiscardedRecords > 0 {
		parts = append(parts, fmt.Sprintf("discarded %d unparseable record(s)", r.DiscardedRecords))
	}
	if r.DiscardedBytes > 0 {
		parts = append(parts, fmt.Sprintf("discarded %d byte(s) of torn log tail", r.DiscardedBytes))
	}
	if len(parts) == 0 {
		return "clean start"
	}
	return strings.Join(parts, ", ")
}

// RecordTo publishes the recovery outcome as gauges, so an operator can
// read off /metrics what the last restart found without scraping logs.
func (r *Recovery) RecordTo(reg *obs.Registry) {
	b2g := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	reg.Gauge("profdb_recovery_clean",
		"1 when the last recovery found nothing corrupt and discarded nothing.").Set(b2g(r.Clean()))
	reg.Gauge("profdb_recovery_snapshot_corrupt",
		"1 when the primary snapshot failed to parse at the last recovery.").Set(b2g(r.SnapshotCorrupt))
	reg.Gauge("profdb_recovery_used_backup",
		"1 when state was restored from the .bak snapshot.").Set(b2g(r.UsedBackup))
	reg.Gauge("profdb_recovery_dropped_negative_gens",
		"Snapshot records with a negative generation left out at the last recovery.").Set(float64(r.DroppedNegativeGens))
	reg.Gauge("profdb_recovery_replayed_records",
		"WAL frames re-ingested at the last recovery.").Set(float64(r.ReplayedRecords))
	reg.Gauge("profdb_recovery_skipped_wals",
		"Log files skipped at the last recovery because the snapshot already embeds them.").Set(float64(r.SkippedWALs))
	reg.Gauge("profdb_recovery_discarded_records",
		"Intact WAL frames whose payload failed to parse or apply at the last recovery.").Set(float64(r.DiscardedRecords))
	reg.Gauge("profdb_recovery_discarded_bytes",
		"Bytes of torn log tail discarded at the last recovery.").Set(float64(r.DiscardedBytes))
}

// readAndParseDB loads one snapshot file, leaving out (and counting)
// records with a negative generation. exists is false only when the
// file is absent; a present-but-unreadable file counts as corrupt.
func readAndParseDB(fsys chaos.FS, path string) (db *DB, dropped int, exists bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, true, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, 0, true, err
	}
	db, dropped, err = readDB(bytes.NewReader(data), true)
	if err != nil {
		return nil, 0, true, err
	}
	return db, dropped, true, nil
}

// Open loads (or creates) a crash-safe store at path, performing full
// recovery, and leaves it in canonical state: a fresh durable snapshot
// and an empty WAL whenever anything had to be replayed or repaired.
// The returned Recovery says what happened; an error means the
// filesystem would not even let recovery complete.
func Open(fsys chaos.FS, path, program string) (*Store, *Recovery, error) {
	rep := &Recovery{}
	db, dropped, exists, _ := readAndParseDB(fsys, path)
	if db == nil && exists {
		rep.SnapshotCorrupt = true
	}
	if db == nil {
		bak, bakDropped, bakExists, _ := readAndParseDB(fsys, bakPathOf(path))
		if bak != nil {
			db, dropped = bak, bakDropped
			rep.UsedBackup = true
		} else if bakExists {
			rep.BackupCorrupt = true
		}
	}
	rep.DroppedNegativeGens = dropped
	fresh := db == nil
	if fresh {
		db = NewDB(program)
	}
	if program != "" && db.Program == "" {
		db.Program = program
	}
	s := &Store{fs: fsys, path: path, db: db}

	// Replay logs in age order. The epoch rule makes this safe against
	// every crash point in the flush sequence: a log strictly older than
	// the snapshot is fully embedded in it.
	for _, wp := range []string{s.prevPath(), s.walPath()} {
		f, err := fsys.Open(wp)
		if err != nil {
			continue // absent (or unreadable: nothing to salvage)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			continue
		}
		epoch, payloads, discarded, ok := parseWAL(data)
		if !ok {
			rep.DiscardedBytes += int64(len(data))
			continue
		}
		if epoch < db.Epoch {
			rep.SkippedWALs++
			continue
		}
		for _, pl := range payloads {
			prg, rec, err := ReadSnapshot(bytes.NewReader(pl))
			if err != nil {
				rep.DiscardedRecords++
				continue
			}
			if err := s.apply(prg, rec); err != nil {
				rep.DiscardedRecords++
				continue
			}
			rep.ReplayedRecords++
		}
		rep.DiscardedBytes += discarded
	}

	// Canonicalize unconditionally: a fresh snapshot at epoch E+1
	// embedding everything recovered, plus a fresh aligned WAL. Reusing
	// a survivor log is never safe in general — its epoch may already
	// trail the snapshot (a crash between snapshot install and log
	// rotation), and appending to it would write frames that the next
	// recovery rightly skips.
	if err := s.Flush(); err != nil {
		return nil, rep, fmt.Errorf("profdb store: recovery flush: %w", err)
	}
	return s, rep, nil
}

func bakPathOf(path string) string { return path + ".bak" }

// DB exposes the in-memory database for merges and stats. Readers must
// coordinate with the writing goroutine externally.
func (s *Store) DB() *DB { return s.db }

// apply validates and commits one record to memory only.
func (s *Store) apply(program string, rec *Record) error {
	if s.db.Program == "" {
		if err := s.db.Ingest(rec); err != nil {
			return err
		}
		s.db.Program = program
		return nil
	}
	if program != "" && program != s.db.Program {
		return fmt.Errorf("snapshot is for program %q, store holds %q", program, s.db.Program)
	}
	return s.db.Ingest(rec)
}

// precheck mirrors apply's validation without mutating anything, so a
// batch can be split into WAL-worthy records and immediate rejections.
func (s *Store) precheck(program string, rec *Record) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("profdb: ingest: record has no fingerprint")
	}
	if rec.Runs <= 0 {
		return fmt.Errorf("profdb: ingest: record has non-positive runs count %d", rec.Runs)
	}
	if rec.Gen < 0 {
		return fmt.Errorf("profdb: ingest: record has negative generation %d", rec.Gen)
	}
	if s.db.Program != "" && program != "" && program != s.db.Program {
		return fmt.Errorf("snapshot is for program %q, store holds %q", program, s.db.Program)
	}
	return nil
}

// Ingest durably logs one record and applies it. A nil return is the
// ack: the record survives kill -9 from this moment on.
func (s *Store) Ingest(program string, rec *Record) error {
	errs := s.IngestBatch([]string{program}, []*Record{rec})
	return errs[0]
}

// IngestBatch logs a batch with a single write+fsync, then applies the
// accepted records. The returned slice has one entry per input record:
// nil means acked-and-durable. A WAL failure fails the whole batch and
// poisons the log, which is rotated (with a fresh snapshot barrier)
// before anything else is acked.
func (s *Store) IngestBatch(programs []string, recs []*Record) []error {
	errs := make([]error, len(recs))
	s.Obs.Histogram("profdb_ingest_batch_records",
		"Records per ingest batch committed with a single fsync.",
		obs.SizeBuckets).Observe(float64(len(recs)))
	if s.walDirty || s.wal == nil {
		// A previous append may have left garbage at the log's tail; any
		// frame written after it would be discarded by replay. A full
		// Flush (not a bare rotation) re-establishes a clean log: the
		// snapshot barrier means retiring the poisoned log to .wal.prev
		// can never clobber acked records that exist nowhere else.
		if err := s.Flush(); err != nil {
			for i := range errs {
				errs[i] = fmt.Errorf("%w: recovery flush: %v", ErrWAL, err)
			}
			return errs
		}
	}
	var buf bytes.Buffer
	accepted := make([]int, 0, len(recs))
	for i, rec := range recs {
		if err := s.precheck(programs[i], rec); err != nil {
			errs[i] = err
			continue
		}
		var payload bytes.Buffer
		if _, err := WriteSnapshot(&payload, programs[i], rec); err != nil {
			errs[i] = err
			continue
		}
		appendWALFrame(&buf, payload.Bytes())
		accepted = append(accepted, i)
	}
	if len(accepted) == 0 {
		return errs
	}
	if _, err := s.wal.Write(buf.Bytes()); err != nil {
		s.walDirty = true
		s.Obs.Counter("profdb_wal_errors_total",
			"WAL append or fsync failures (each NAKs its whole batch).",
			"op", "append").Inc()
		for _, i := range accepted {
			errs[i] = fmt.Errorf("%w: append: %v", ErrWAL, err)
		}
		return errs
	}
	fsyncStart := time.Now()
	err := s.wal.Sync()
	s.Obs.Histogram("profdb_wal_fsync_seconds",
		"WAL fsync latency — the daemon's ack barrier.",
		nil).Observe(time.Since(fsyncStart).Seconds())
	if err != nil {
		s.walDirty = true
		s.Obs.Counter("profdb_wal_errors_total",
			"WAL append or fsync failures (each NAKs its whole batch).",
			"op", "fsync").Inc()
		for _, i := range accepted {
			errs[i] = fmt.Errorf("%w: fsync: %v", ErrWAL, err)
		}
		return errs
	}
	for _, i := range accepted {
		if err := s.apply(programs[i], recs[i]); err != nil {
			// Precheck passed, so this is a first-ingest adoption race with
			// itself within the batch (program conflict): report it.
			errs[i] = err
		}
	}
	return errs
}

// writeFileSynced writes name via the FS with an fsync before close.
func (s *Store) writeFileSynced(name string, data []byte) error {
	f, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Flush advances the snapshot to epoch E+1 and rotates the WAL:
//
//  1. serialize the store at epoch E+1 into <path>.tmp (fsynced);
//  2. rename <path>.tmp over <path> and fsync the directory — if this
//     tears, the backup from the PREVIOUS flush (epoch E) plus the
//     still-unrotated epoch-E log reconstruct the full state;
//  3. install the same bytes as <path>.bak (via its own tmp + rename) —
//     written from memory, never copied from the primary, so a torn
//     primary can never poison it; it replaces the old backup only
//     after the new primary is durable, so at every crash instant at
//     least one snapshot file parses;
//  4. install a fresh epoch-E+1 WAL, keeping the old log one more
//     epoch as <path>.wal.prev.
//
// The backup always carries the same epoch as the state it embeds, so
// whichever snapshot recovery loads, the epoch rule replays exactly
// the log records that snapshot lacks — no loss, no double count. A
// failure in step 1 leaves the old pair authoritative (error returned,
// store still usable); a failure from step 2 on poisons the log so the
// next ingest retries a full flush before acking anything.
func (s *Store) Flush() error {
	flushStart := time.Now()
	defer func() {
		s.Obs.Counter("profdb_flushes_total",
			"Snapshot flushes attempted (including the recovery flush).").Inc()
		s.Obs.Histogram("profdb_flush_seconds",
			"Wall time of one snapshot flush and WAL rotation.",
			nil).Observe(time.Since(flushStart).Seconds())
	}()
	oldEpoch := s.db.Epoch
	s.db.Epoch = oldEpoch + 1
	var snap bytes.Buffer
	if _, err := s.db.WriteTo(&snap); err != nil {
		s.db.Epoch = oldEpoch
		return err
	}
	tmp := s.path + ".tmp"
	if err := s.writeFileSynced(tmp, snap.Bytes()); err != nil {
		s.db.Epoch = oldEpoch
		return err
	}
	if err := s.fs.Rename(tmp, s.path); err != nil {
		// The primary may now be torn; the previous backup plus the
		// unrotated log cover it. Keep the bumped epoch and poison the
		// log so recovery-by-flush runs before the next ack.
		s.walDirty = true
		return err
	}
	if err := s.fs.SyncDir(filepath.Dir(s.path)); err != nil {
		s.walDirty = true
		return err
	}
	bakTmp := s.bakPath() + ".tmp"
	if err := s.writeFileSynced(bakTmp, snap.Bytes()); err != nil {
		s.walDirty = true
		return fmt.Errorf("profdb store: backup: %w", err)
	}
	if err := s.fs.Rename(bakTmp, s.bakPath()); err != nil {
		s.walDirty = true
		return fmt.Errorf("profdb store: backup: %w", err)
	}
	// The snapshot is durable; from here on the old WAL is redundant
	// (epoch < E+1 is skipped at recovery). Rotate it.
	if err := s.rotateWAL(); err != nil {
		// Snapshot E+1 is safely installed, but no clean log exists yet;
		// stay dirty so the next ingest retries before acking.
		return fmt.Errorf("profdb store: wal rotate: %w", err)
	}
	return nil
}

// rotateWAL installs a fresh, empty log at the store's current epoch,
// retiring any existing log to <path>.wal.prev. The retired log's
// epoch rule keeps its records replayable exactly when still needed.
func (s *Store) rotateWAL() error {
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	s.walDirty = true // stays set until a clean log is standing
	tmp := s.walPath() + ".tmp"
	if err := s.writeFileSynced(tmp, walHeader(s.db.Epoch)); err != nil {
		return err
	}
	if _, err := s.fs.Size(s.walPath()); err == nil {
		if err := s.fs.Rename(s.walPath(), s.prevPath()); err != nil {
			return err
		}
	}
	if err := s.fs.Rename(tmp, s.walPath()); err != nil {
		return err
	}
	if err := s.fs.SyncDir(filepath.Dir(s.path)); err != nil {
		return err
	}
	wal, err := s.fs.OpenAppend(s.walPath())
	if err != nil {
		return err
	}
	s.wal = wal
	s.walDirty = false
	return nil
}

// WALClean reports whether a clean write-ahead log is standing, i.e.
// whether the next ingest can be acked without first re-establishing
// the log. This is the store half of the daemon's readiness probe.
func (s *Store) WALClean() bool {
	return s.wal != nil && !s.walDirty
}

// ReplaceBatch overwrites whole records — the anti-entropy adoption
// path, where a repair push carries a replica copy that beats the
// local one. Replacement cannot ride the WAL (its replay semantics are
// additive: a replayed frame re-ingests, it does not overwrite), so
// durability comes from a full snapshot flush before the nil return.
// Single-writer like every other mutation.
func (s *Store) ReplaceBatch(program string, recs []*Record) error {
	if s.db.Program == "" && program != "" {
		s.db.Program = program
	}
	for _, rec := range recs {
		s.db.Records[RecordKey{Fingerprint: rec.Fingerprint, Gen: rec.Gen}] = rec
	}
	if err := s.Flush(); err != nil {
		// The adoption is in memory but not yet durable; Flush poisoned
		// the log, so nothing further is acked until a flush succeeds.
		return fmt.Errorf("%w: repair flush: %v", ErrWAL, err)
	}
	return nil
}

// Close flushes a final snapshot and releases the log handle.
func (s *Store) Close() error {
	err := s.Flush()
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	return err
}
