package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/chaos"
	"inlinec/internal/fleet"
	"inlinec/internal/profdb"
)

// fleet-mixed shape: the 3-node, R=2 quorum configuration (the
// single-node one is noisier), espresso snapshots over 16 seeded
// fingerprints, and a closed-loop write phase then read phase on the
// same store. Each round ends with fleetCompiles ilcc -profdb
// compiles of espresso, the last of them evaluated.
const (
	fleetNodes        = 3
	fleetReplicas     = 2
	fleetFingerprints = 16
	fleetGenerations  = 8
	fleetWritePhase   = 1 * time.Second // closed-loop phases of one round
	fleetReadPhase    = 2500 * time.Millisecond
	fleetCompiles     = 4
	fleetSetupReps    = 3
	fleetProgram      = "espresso"
)

// fleetEnv is one booted in-process fleet plus everything its clients
// need.
type fleetEnv struct {
	dir     string
	nodes   []*fleet.Node
	servers []*httptest.Server
	router  *httptest.Server
	gens    []*profdb.Record // one espresso snapshot per generation
	fps     []string         // seeded fingerprints; fps[0] is espresso's own
	acked   int              // ingests acknowledged so far
	compile *job             // the ilcc -profdb compile of espresso

	tr        atomic.Pointer[tracer] // set during traced rounds
	status5xx atomic.Int64           // router 5xx responses while traced
}

// bootFleet profiles espresso into one snapshot per generation, boots
// the fleet under dir, and seeds every generation under every
// fingerprint, so each round reads and writes a store of the same size.
func bootFleet(seed int64, dir string) (*fleetEnv, error) {
	b := bench.Get(fleetProgram)
	p, err := inlinec.Compile(fleetProgram+".c", b.Source)
	if err != nil {
		return nil, err
	}
	prof, err := p.ProfileInputs(b.Inputs...)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{dir: dir}
	for g := 0; g < fleetGenerations; g++ {
		rec, err := p.Snapshot(prof, g)
		if err != nil {
			return nil, err
		}
		e.gens = append(e.gens, rec)
	}
	base := p.Fingerprint()
	e.fps = []string{base}
	seen := map[string]bool{base: true}
	r := rand.New(rand.NewSource(seed))
	for len(e.fps) < fleetFingerprints {
		fp := fmt.Sprintf("%04x", r.Intn(1<<16)) + base[4:]
		if !seen[fp] {
			seen[fp] = true
			e.fps = append(e.fps, fp)
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var peers []string
	var stores []*profdb.Store
	for i := 0; i < fleetNodes; i++ {
		store, _, err := profdb.Open(chaos.OSFS{}, filepath.Join(dir, fmt.Sprintf("node%d.profdb", i)), fleetProgram+".c")
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("open node%d: %w", i, err)
		}
		stores = append(stores, store)
		n := fleet.NewStoreNode(store, 64, nil)
		e.nodes = append(e.nodes, n)
		srv := httptest.NewServer(e.wrap(n.Handler(), "node"))
		e.servers = append(e.servers, srv)
		peers = append(peers, srv.URL)
	}
	rt, err := fleet.NewRouter(peers, fleetReplicas, fleet.RouterOptions{})
	if err != nil {
		e.stop()
		return nil, err
	}
	e.router = httptest.NewServer(e.wrap(rt.Handler(), "router"))

	// Seed straight into each owner's store, one fsync per node, before
	// the nodes start. Through the router the seeding was 128 ingests of
	// one fsync each, and set-up time followed the disk's latency.
	if err := e.seed(stores, rt.Ring(), peers); err != nil {
		e.stop()
		return nil, fmt.Errorf("seed: %w", err)
	}
	for _, n := range e.nodes {
		n.Start()
	}
	c := profdb.NewClient(e.router.URL)
	refs, err := parseRefs(paperRefs)
	if err != nil {
		e.stop()
		return nil, err
	}
	e.compile = &job{name: fleetProgram, src: b.Source, inputs: b.Inputs,
		params: inlinec.DefaultParams(), guide: guideFleet, client: c, refs: refs[fleetProgram]}
	return e, nil
}

// seed ingests every generation under every fingerprint into the
// stores of the fingerprint's owners on the ring. Each copy goes
// through the snapshot encoding, as an ingest over HTTP does, so no two
// stores share a record.
func (e *fleetEnv) seed(stores []*profdb.Store, ring *fleet.Ring, peers []string) error {
	batches := make([][]*profdb.Record, len(stores))
	for _, fp := range e.fps {
		for _, gen := range e.gens {
			rec := *gen
			rec.Fingerprint = fp
			var buf bytes.Buffer
			if _, err := profdb.WriteSnapshot(&buf, fleetProgram+".c", &rec); err != nil {
				return err
			}
			for _, owner := range ring.Owners(fp) {
				_, cp, err := profdb.ReadSnapshot(bytes.NewReader(buf.Bytes()))
				if err != nil {
					return err
				}
				i := slices.Index(peers, owner)
				batches[i] = append(batches[i], cp)
			}
			e.acked++
		}
	}
	for i, recs := range batches {
		programs := make([]string, len(recs))
		for k := range programs {
			programs[k] = fleetProgram + ".c"
		}
		for _, err := range stores[i].IngestBatch(programs, recs) {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// compiles is one round's compile step: the same ilcc -profdb job
// fleetCompiles times.
func (e *fleetEnv) compiles() []*job {
	jobs := make([]*job, fleetCompiles)
	for i := range jobs {
		jobs[i] = e.compile
	}
	return jobs
}

// stop shuts every server and node down and removes the fleet's files.
func (e *fleetEnv) stop() {
	if e.router != nil {
		e.router.Close()
	}
	for _, srv := range e.servers {
		srv.Close()
	}
	for _, n := range e.nodes {
		n.Stop()
	}
	os.RemoveAll(e.dir)
}

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap times every request a router or node handler serves while a
// traced round is running; untraced, it adds one atomic load.
func (e *fleetEnv) wrap(h http.Handler, tier string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := e.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		kind := "read"
		if r.URL.Path == "/ingest" {
			kind = "ingest"
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s := tr.start("fleet."+tier+"."+kind, 0)
		h.ServeHTTP(sw, r)
		s.end()
		if tier == "router" && sw.code >= 500 {
			e.status5xx.Add(1)
		}
	})
}

// retryCounter counts the one warning line a Client writes per retry.
type retryCounter struct{ n atomic.Int64 }

func (c *retryCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte("\n"))))
	return len(p), nil
}

// loopResult is one round's closed loop.
type loopResult struct {
	ingests, reads []time.Duration // latencies of successful requests
	acked          int
	failed         int
	errs           []string
	// ingestTime and readTime run from the start of each phase to the
	// end of its last request.
	ingestTime, readTime time.Duration
	retries              int64
	lc                   layerCounts // resolve accounting, traced only
}

// loop runs a write phase for fleetWritePhase, then a read phase for
// fleetReadPhase, on the same store, each a closed loop of one client
// per reader program: a client sends its next request only when the
// previous one has completed. A writer posts a snapshot of a seeded
// generation under a seeded fingerprint; a reader fetches a seeded
// fingerprint's merged record and resolves it onto its module, as
// ilcc -profdb does. The phases do not overlap: run side by side, every
// read's CPU burst stalled the writers, and the ingest rate swung with
// the machine's load far more than either kind alone.
func (e *fleetEnv) loop(seed int64, readers []*inlinec.Program, tr *tracer) *loopResult {
	res := &loopResult{}
	var mu sync.Mutex
	var retries retryCounter
	for _, write := range []bool{true, false} {
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(fleetReadPhase)
		if write {
			deadline = start.Add(fleetWritePhase)
		}
		for c := range readers {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := seed + int64(c)
				if !write {
					id += int64(len(readers))
				}
				r := rand.New(rand.NewSource(id))
				client := profdb.NewClient(e.router.URL)
				client.SeedBackoff(id)
				client.Warn = &retries
				var local loopResult
				for time.Now().Before(deadline) {
					fp := e.fps[r.Intn(len(e.fps))]
					t0 := time.Now()
					if write {
						rec := *e.gens[r.Intn(len(e.gens))]
						rec.Fingerprint = fp
						s := tr.start("profdb.post", 0)
						_, err := client.PostSnapshot(fleetProgram+".c", &rec)
						s.end()
						if err != nil {
							local.failed++
							local.errs = append(local.errs, "ingest: "+err.Error())
							continue
						}
						local.acked++
						local.ingests = append(local.ingests, time.Since(t0))
						continue
					}
					s := tr.start("profdb.fetch", 0)
					_, rec, err := client.FetchProfile(fp, nil)
					s.end()
					if err != nil {
						local.failed++
						local.errs = append(local.errs, "read: "+err.Error())
						continue
					}
					if tr == nil {
						readers[c].HybridProfileFromRecord(rec)
					} else {
						resolveHybrid(tr, 0, readers[c].Module, rec, &local.lc)
					}
					local.reads = append(local.reads, time.Since(t0))
				}
				mu.Lock()
				res.ingests = append(res.ingests, local.ingests...)
				res.reads = append(res.reads, local.reads...)
				res.acked += local.acked
				res.failed += local.failed
				res.errs = append(res.errs, local.errs...)
				res.lc.exactSites += local.lc.exactSites
				res.lc.resolvedSites += local.lc.resolvedSites
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		if write {
			res.ingestTime = time.Since(start)
		} else {
			res.readTime = time.Since(start)
		}
	}
	res.retries = retries.n.Load()
	return res
}

// fleetRound is one round: the closed loop, the drain check, then an
// ilcc -profdb compile of espresso against what the fleet serves.
type fleetRound struct {
	loop *loopResult
	rd   *round
}

func (fr *fleetRound) ingestsPerS() float64 {
	return float64(fr.loop.acked) / fr.loop.ingestTime.Seconds()
}

func (fr *fleetRound) readsPerS() float64 {
	return float64(len(fr.loop.reads)) / fr.loop.readTime.Seconds()
}

// opsPerS is the geometric mean of the ingest and read rates, so the
// same relative change in either kind moves it by the same amount.
func (fr *fleetRound) opsPerS() float64 {
	return math.Sqrt(fr.ingestsPerS() * fr.readsPerS())
}

// runFleetWorkload measures fleet-mixed.
func runFleetWorkload(seed int64, d time.Duration, trace bool) (*report, error) {
	rep := &report{workload: "fleet-mixed"}
	base := filepath.Join(".bench_build", fmt.Sprintf("fleet-%d", os.Getpid()))
	defer os.RemoveAll(base)

	// Set-up is repeated and the median reported; only the last fleet
	// is kept.
	var setups []float64
	var e *fleetEnv
	for i := 0; i < fleetSetupReps; i++ {
		if e != nil {
			e.stop()
		}
		t0 := time.Now()
		var err error
		e, err = bootFleet(seed, filepath.Join(base, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.stop()
	rep.add("setup_s", median(setups), len(setups))

	readers := make([]*inlinec.Program, runtime.GOMAXPROCS(0))
	for c := range readers {
		p, err := inlinec.Compile(fleetProgram+".c", bench.Get(fleetProgram).Source)
		if err != nil {
			return nil, err
		}
		readers[c] = p
	}
	runsPer := e.gens[0].Runs
	check := profdb.NewClient(e.router.URL)

	var all, plain, traced []*fleetRound // all in the order they ran
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if trace && i%2 == 1 {
			tr = newTracer()
			e.tr.Store(tr)
		}
		runtime.GC() // start every round from a collected heap
		fr := &fleetRound{loop: e.loop(seed*1000+int64(i), readers, tr)}
		e.acked += fr.loop.acked
		e.tr.Store(nil)

		// Drain check: every acknowledged ingest is in the merged view.
		db, err := check.FetchDB()
		if err != nil {
			return nil, fmt.Errorf("drain check: %w", err)
		}
		merged := 0
		for _, rec := range db.Records {
			merged += rec.Runs
		}
		if want := e.acked * runsPer; merged != want {
			rep.problemf("round %d: merged view holds %d run(s), want %d (%d acked x %d runs/snapshot)",
				i, merged, want, e.acked, runsPer)
			fr.loop.failed++
		}

		e.tr.Store(tr)
		fr.rd = runRound(e.compiles(), fleetCompiles-1, tr)
		e.tr.Store(nil)
		all = append(all, fr)
		if tr != nil {
			traced = append(traced, fr)
		} else {
			plain = append(plain, fr)
		}
		if time.Since(start) >= d && (!trace || len(traced) > 0) {
			break
		}
	}

	var rounds []*round
	for _, fr := range all {
		rounds = append(rounds, fr.rd)
		rep.attempted += fr.loop.acked + len(fr.loop.reads) + fr.loop.failed
		rep.failed += fr.loop.failed
		for _, msg := range fr.loop.errs {
			rep.problemf("%s", msg)
		}
	}
	checkRounds(rep, rounds)

	var compileS, evalS, ops []float64
	var ingests, reads []float64
	for _, fr := range plain {
		for _, r := range fr.rd.rows {
			compileS = append(compileS, r.compile.Seconds())
		}
		evalS = append(evalS, fr.rd.eval.Seconds())
		ops = append(ops, fr.opsPerS())
		for _, x := range fr.loop.ingests {
			ingests = append(ingests, ms(x))
		}
		for _, x := range fr.loop.reads {
			reads = append(reads, ms(x))
		}
	}
	r := rounds[0].rows[fleetCompiles-1]
	n := len(plain)
	rep.add("compile_s", median(compileS), len(compileS))
	rep.add("eval_s", median(evalS), n)
	rep.add("ops_per_s", median(ops), n)
	rep.add("code_growth_pct", r.codeGrowthPct(), 1)
	rep.add("calls_removed_pct", r.callsRemovedPct(), 1)
	rep.add("dyn_il_ratio", r.ilAfter/r.ilBefore, 1)
	sort.Float64s(ingests)
	sort.Float64s(reads)
	rep.detail = append(rep.detail,
		fmt.Sprintf("requests over %d untraced round(s), %d client(s) per phase: ingest p50 %.3f ms p95 %.3f ms (%d samples), read p50 %.3f ms p95 %.3f ms (%d samples), %d acked in total",
			n, len(readers), quantile(ingests, 0.5), quantile(ingests, 0.95), len(ingests),
			quantile(reads, 0.5), quantile(reads, 0.95), len(reads), e.acked))
	for i, fr := range all {
		rep.detail = append(rep.detail, fmt.Sprintf("round %d (traced %v): ops_per_s %.3f (%d ingest(s) at %.1f/s, %d read(s) at %.2f/s), compile_s %.4f eval_s %.4f",
			i, fr.rd.tr != nil, fr.opsPerS(), fr.loop.acked, fr.ingestsPerS(), len(fr.loop.reads), fr.readsPerS(),
			fr.rd.compile.Seconds(), fr.rd.eval.Seconds()))
	}
	rep.detail = append(rep.detail, programRows(nil, rounds)...)
	if trace {
		fleetLayerMetrics(rep, e, plain, traced)
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fleetLayerMetrics reports the traced rounds' per-layer metrics: the
// compile layers from the espresso compile, the client and handler
// latencies from the closed loop.
func fleetLayerMetrics(rep *report, e *fleetEnv, plain, traced []*fleetRound) {
	per := map[string][]float64{}
	for _, fr := range traced {
		vals := layerValues(fr.rd, e.compiles())
		lt := fr.rd.tr.analyze()
		pct := func(name string, q float64) float64 {
			l := lt[name]
			if l == nil {
				return 0
			}
			v := make([]float64, len(l.durs))
			for i, d := range l.durs {
				v[i] = ms(d)
			}
			sort.Float64s(v)
			return quantile(v, q)
		}
		calls := func(name string) float64 {
			if l := lt[name]; l != nil {
				return float64(l.calls)
			}
			return 0
		}
		vals["profdb.post_ms"] = pct("profdb.post", 0.5)
		vals["profdb.post_p95_ms"] = pct("profdb.post", 0.95)
		vals["profdb.fetch_ms"] = pct("profdb.fetch", 0.5)
		vals["profdb.fetch_p95_ms"] = pct("profdb.fetch", 0.95)
		vals["profdb.requests"] = calls("profdb.post") + calls("profdb.fetch")
		vals["profdb.retries"] = float64(fr.loop.retries)
		exact, sites := fr.loop.lc.exactSites, fr.loop.lc.resolvedSites
		for _, r := range fr.rd.rows {
			exact += r.layer.exactSites
			sites += r.layer.resolvedSites
		}
		vals["profdb.exact_site_ratio"] = ratio(exact, sites)
		vals["fleet.router.ingest_ms"] = pct("fleet.router.ingest", 0.5)
		vals["fleet.router.read_ms"] = pct("fleet.router.read", 0.5)
		vals["fleet.node.ingest_ms"] = pct("fleet.node.ingest", 0.5)
		vals["fleet.node.read_ms"] = pct("fleet.node.read", 0.5)
		vals["fleet.node.requests"] = calls("fleet.node.ingest") + calls("fleet.node.read")
		for k, v := range vals {
			per[k] = append(per[k], v)
		}
	}
	per["fleet.router.status_5xx"] = []float64{float64(e.status5xx.Load())}
	addLayerMetrics(rep, per, len(traced))
	allocsMetric(rep, []*job{e.compile})
	rep.detail = append(rep.detail, shareLine(per))

	var p, t []float64
	for _, fr := range plain {
		p = append(p, fr.opsPerS())
	}
	for _, fr := range traced {
		t = append(t, fr.opsPerS())
	}
	rep.addLayer(defByName("trace.overhead_pct"), 100*(median(p)/median(t)-1), len(p)+len(t))
}
