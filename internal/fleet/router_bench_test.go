package fleet_test

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/fleet"
	"inlinec/internal/profdb"
)

// BenchmarkRouterRead times one routed merged read, as ilcc -profdb
// issues it, on an in-process 3-node R=2 fleet holding the measured
// espresso profile under 12 fingerprints and 8 generations.
func BenchmarkRouterRead(b *testing.B) {
	bm := bench.Get("espresso")
	p, err := inlinec.Compile("espresso.c", bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := p.ProfileInputs(bm.Inputs...)
	if err != nil {
		b.Fatal(err)
	}
	var peers []string
	for i := 0; i < 3; i++ {
		n := fleet.NewNode(profdb.NewDB(""), 0)
		n.Start()
		defer n.Stop()
		srv := httptest.NewServer(n.Handler())
		defer srv.Close()
		peers = append(peers, srv.URL)
	}
	rt, err := fleet.NewRouter(peers, 2, fleet.RouterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt.Handler())
	defer rtSrv.Close()
	c := profdb.NewClient(rtSrv.URL)
	var fps []string
	for i := 0; i < 12; i++ {
		fp := fmt.Sprintf("%04x", i) + p.Fingerprint()[4:]
		fps = append(fps, fp)
		for gen := 0; gen < 8; gen++ {
			rec, err := p.Snapshot(prof, gen)
			if err != nil {
				b.Fatal(err)
			}
			rec.Fingerprint = fp
			if _, err := c.PostSnapshot("espresso.c", rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fleet.router.read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.FetchProfile(fps[i%len(fps)], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
