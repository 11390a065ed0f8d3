package fleet

import (
	"bytes"
	"fmt"

	"inlinec/internal/profdb"
)

// The fleet's convergence story rests on one total order over records.
//
// profdb records are accumulating counters with no per-ingest identity,
// so diverged replicas cannot be unioned — there is no way to tell
// which ingests a lagging copy is missing. Instead the fleet relies on
// the write quorum: an ingest is acked only when EVERY owner of its key
// committed it, so each replica's copy of a key is a prefix of the same
// ingest sequence and the longest copy — the winner — contains every
// acked ingest. Anti-entropy therefore never merges: it replaces losing
// copies with the winner, which is provably acked-preserving.

// recordBytes is the canonical serialization used for winner
// tie-breaks; the program name is irrelevant to the order and omitted.
func recordBytes(rec *profdb.Record) []byte {
	var buf bytes.Buffer
	profdb.WriteSnapshot(&buf, "", rec)
	return buf.Bytes()
}

// betterRecord reports whether a beats b in the winner order: more
// Runs first, ties broken toward the lexicographically larger
// canonical serialization. Equal serializations are equal records —
// neither beats the other, so adoption terminates. Total and
// deterministic: every router instance picks the same winner from the
// same copies.
//
// Replica copies of a key are almost always equal, and equal records
// serialize identically, so an equal pair is settled without encoding
// either; only copies that differ pay for the byte comparison.
func betterRecord(a, b *profdb.Record) bool {
	if a == nil {
		return false
	}
	if b == nil {
		return true
	}
	if a.Runs != b.Runs {
		return a.Runs > b.Runs
	}
	if a.Equal(b) {
		return false
	}
	return bytes.Compare(recordBytes(a), recordBytes(b)) > 0
}

// combineWinners folds replica databases into the fleet view: the
// per-key winner across all copies. Because the winner order is total,
// the result is independent of the order dbs are supplied in. Records
// are shared, not copied — callers must treat the result as read-only.
func combineWinners(dbs []*profdb.DB) (*profdb.DB, error) {
	out := profdb.NewDB("")
	for _, db := range dbs {
		if db == nil {
			continue
		}
		if db.Program != "" {
			if out.Program == "" {
				out.Program = db.Program
			} else if db.Program != out.Program {
				return nil, fmt.Errorf("fleet: nodes disagree on program: %q vs %q",
					out.Program, db.Program)
			}
		}
		if db.Epoch > out.Epoch {
			out.Epoch = db.Epoch
		}
		for _, key := range db.SortedKeys() {
			if rec := db.Records[key]; betterRecord(rec, out.Records[key]) {
				out.Records[key] = rec
			}
		}
	}
	return out, nil
}
