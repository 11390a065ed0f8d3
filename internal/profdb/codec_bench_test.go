package profdb_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/profdb"
)

// espressoDB is a 96-record database shaped like a fleet node's: the
// measured espresso profile under 12 fingerprints and 8 generations.
func espressoDB(b *testing.B) *profdb.DB {
	b.Helper()
	bm := bench.Get("espresso")
	p, err := inlinec.Compile("espresso.c", bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := p.ProfileInputs(bm.Inputs...)
	if err != nil {
		b.Fatal(err)
	}
	db := profdb.NewDB("espresso.c")
	base := p.Fingerprint()
	for i := 0; i < 12; i++ {
		for gen := 0; gen < 8; gen++ {
			rec, err := p.Snapshot(prof, gen)
			if err != nil {
				b.Fatal(err)
			}
			rec.Fingerprint = fmt.Sprintf("%04x", i) + base[4:]
			if err := db.Ingest(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// BenchmarkProfDBCodec times the ILPROFDB and ILPROFSNAP codec. The
// sub-benchmarks carry the perfbench layer they sit under: a fetch
// encodes and decodes every node's database dump, a post one snapshot.
func BenchmarkProfDBCodec(b *testing.B) {
	db := espressoDB(b)
	var dump, snap bytes.Buffer
	if _, err := db.WriteTo(&dump); err != nil {
		b.Fatal(err)
	}
	rec := db.Records[db.SortedKeys()[0]]
	if _, err := profdb.WriteSnapshot(&snap, db.Program, rec); err != nil {
		b.Fatal(err)
	}
	b.Run("profdb.fetch/WriteTo", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(dump.Len()))
		for i := 0; i < b.N; i++ {
			db.WriteTo(io.Discard)
		}
	})
	b.Run("profdb.fetch/ReadDB", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(dump.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := profdb.ReadDB(bytes.NewReader(dump.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profdb.post/WriteSnapshot", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(snap.Len()))
		for i := 0; i < b.N; i++ {
			profdb.WriteSnapshot(io.Discard, db.Program, rec)
		}
	})
	b.Run("profdb.post/ReadSnapshot", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(snap.Len()))
		for i := 0; i < b.N; i++ {
			if _, _, err := profdb.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
