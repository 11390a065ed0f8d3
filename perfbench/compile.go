package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// round is one pass of a compile workload over its whole program set.
type round struct {
	rows          []*row
	compile, eval time.Duration
	tr            *tracer // nil for untraced rounds
}

func (rd *round) total() time.Duration { return rd.compile + rd.eval }

// runRound runs every job once, evaluating each unless it is one of
// the first skipEval jobs.
func runRound(jobs []*job, skipEval int, tr *tracer) *round {
	runtime.GC() // start every round from a collected heap
	rd := &round{tr: tr}
	for i, j := range jobs {
		r := j.run(tr, i >= skipEval)
		rd.rows = append(rd.rows, r)
		rd.compile += r.compile
		rd.eval += r.eval
	}
	return rd
}

// compilerLayers are the spans of the compiler proper, as opposed to the
// interpreter that runs profiling and evaluation.
var compilerLayers = []string{
	"frontend.parse", "frontend.sema", "frontend.irgen", "opt.preinline",
	"predict.synthesize", "callgraph.build", "inline.expand", "ir.verify",
	"profdb.fetch", "profdb.resolve",
}

// runCompileWorkload measures paper-measured or synth-predicted: set up
// setups times (reporting the median), then run whole rounds until d has
// passed. With trace set, traced rounds alternate with untraced ones.
func runCompileWorkload(name string, setup func() ([]*job, error), setups int, d time.Duration, trace bool) (*report, error) {
	rep := &report{workload: name}
	var jobs []*job
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if jobs, err = setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.add("setup_s", median(setupS), setups)

	var all, plain, traced []*round // all in the order they ran
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if trace && i%2 == 1 {
			tr = newTracer()
		}
		rd := runRound(jobs, 0, tr)
		all = append(all, rd)
		if tr != nil {
			traced = append(traced, rd)
		} else {
			plain = append(plain, rd)
		}
		if time.Since(start) >= d && (!trace || len(traced) > 0) {
			break
		}
	}
	checkRounds(rep, all)

	first := all[0]
	var compileS, evalS, opsPerS []float64
	for _, rd := range plain {
		compileS = append(compileS, rd.compile.Seconds())
		evalS = append(evalS, rd.eval.Seconds())
		opsPerS = append(opsPerS, float64(len(rd.rows))/rd.total().Seconds())
	}
	var growth, removed, ilRatio []float64
	// In name order, so the float sums do not depend on the seed's
	// program order.
	byName := append([]*row(nil), first.rows...)
	sort.Slice(byName, func(a, b int) bool { return byName[a].name < byName[b].name })
	for _, r := range byName {
		if r.compileFailed {
			continue
		}
		growth = append(growth, r.codeGrowthPct())
		removed = append(removed, r.callsRemovedPct())
		ilRatio = append(ilRatio, r.ilAfter/r.ilBefore)
	}
	n := len(plain)
	rep.add("compile_s", median(compileS), n)
	rep.add("eval_s", median(evalS), n)
	rep.add("ops_per_s", median(opsPerS), n)
	rep.add("code_growth_pct", mean(growth), len(growth))
	rep.add("calls_removed_pct", mean(removed), len(removed))
	rep.add("dyn_il_ratio", geomean(ilRatio), len(ilRatio))
	for i, rd := range all {
		rep.detail = append(rep.detail, fmt.Sprintf("round %d (traced %v): compile_s %.4f eval_s %.4f",
			i, rd.tr != nil, rd.compile.Seconds(), rd.eval.Seconds()))
	}
	rep.detail = append(rep.detail, programRows(plain, traced)...)
	if trace {
		layerMetrics(rep, jobs, plain, traced)
	}
	return rep, nil
}

// checkRounds counts attempts and failures, and enforces the
// determinism contract: every deterministic count of every program is
// identical in every round, traced or not.
func checkRounds(rep *report, rounds []*round) {
	var firstTraced *round
	for _, rd := range rounds {
		if rd.tr != nil {
			firstTraced = rd
			break
		}
	}
	for k, rd := range rounds {
		for i, r := range rd.rows {
			rep.attempted += 1 + r.runs
			rep.failed += r.failed
			if r.compileFailed {
				rep.failed++
			}
			if k == 0 {
				for _, w := range r.wrongOrFaulted {
					rep.problemf("%s: %s", r.name, w)
				}
			}
			if want := rounds[0].rows[i]; r.counts() != want.counts() {
				rep.problemf("determinism: round %d (traced %v) measured a different program:\n  %s\nwant\n  %s",
					k, rd.tr != nil, r.counts(), want.counts())
			}
			if rd.tr != nil && r.layer != firstTraced.rows[i].layer {
				rep.problemf("determinism: per-layer counts of %s differ between traced rounds", r.name)
			}
		}
	}
}

// programRows renders one detail row per program: median compile and
// eval time over the untraced rounds, then the deterministic counts.
func programRows(plain, traced []*round) []string {
	rounds := plain
	if len(rounds) == 0 {
		rounds = traced
	}
	out := []string{fmt.Sprintf("%-22s %10s %10s %5s %7s %7s %9s %9s %10s %5s %6s",
		"program", "compile_s", "eval_s", "exp", "partial", "devirt", "growth_%", "callsrm_%", "dyn_il_rat", "runs", "failed")}
	for i, r := range rounds[0].rows {
		var c, e []float64
		for _, rd := range rounds {
			c = append(c, rd.rows[i].compile.Seconds())
			e = append(e, rd.rows[i].eval.Seconds())
		}
		line := fmt.Sprintf("%-22s %10.4f", r.name, median(c))
		if r.runs == 0 { // compiled only
			line += fmt.Sprintf(" %10s %5d %7d %7d %9.4f", "-", r.expansions, r.partial, r.devirt, r.codeGrowthPct())
		} else {
			line += fmt.Sprintf(" %10.4f %5d %7d %7d %9.4f %9.4f %10.6f %5d %6d", median(e),
				r.expansions, r.partial, r.devirt, r.codeGrowthPct(), r.callsRemovedPct(), r.ilAfter/r.ilBefore, r.runs, r.failed)
		}
		out = append(out, line)
	}
	return out
}

// layerValues computes one traced round's per-layer values.
func layerValues(rd *round, jobs []*job) map[string]float64 {
	lt := rd.tr.analyze()
	self := func(name string) float64 {
		if l := lt[name]; l != nil {
			return l.self.Seconds()
		}
		return 0
	}
	var lc layerCounts
	var exp, partial, devirt, lookups, hits, faults int
	var dynIL float64
	for i, r := range rd.rows {
		lc.srcLines += r.layer.srcLines
		lc.staticIL += r.layer.staticIL
		lc.ilRemoved += r.layer.ilRemoved
		lc.arcs += r.layer.arcs
		lc.predictSites += r.layer.predictSites
		exp += r.expansions
		partial += r.partial
		devirt += r.devirt
		lookups += r.cacheLookups
		hits += r.cacheHits
		faults += r.faults
		dynIL += r.ilAfter * float64(r.runs)
		if jobs[i].guide == guideMeasured {
			dynIL += r.ilBefore * float64(r.runs)
		}
	}
	run := lt["interp.run"]
	if run == nil {
		run = &layerTimes{}
	}
	compile := rd.compile.Seconds()
	return map[string]float64{
		"frontend.parse_s":       self("frontend.parse"),
		"frontend.sema_s":        self("frontend.sema"),
		"frontend.irgen_s":       self("frontend.irgen"),
		"frontend.src_lines":     float64(lc.srcLines),
		"frontend.static_il":     float64(lc.staticIL),
		"opt.preinline_s":        self("opt.preinline"),
		"opt.static_il_removed":  float64(lc.ilRemoved),
		"predict.synthesize_s":   self("predict.synthesize"),
		"predict.sites":          float64(lc.predictSites),
		"callgraph.build_s":      self("callgraph.build"),
		"callgraph.arcs":         float64(lc.arcs),
		"inline.expand_s":        self("inline.expand"),
		"inline.expansions":      float64(exp),
		"inline.partial":         float64(partial),
		"inline.devirt":          float64(devirt),
		"inline.cache_hit_ratio": ratio(hits, lookups),
		"ir.verify_s":            self("ir.verify"),
		"interp.translate_s":     self("interp.translate"),
		"interp.run_s":           run.lane.Seconds(),
		"interp.run_wall_s":      run.wall.Seconds(),
		"interp.runs":            float64(run.calls),
		"interp.dyn_il":          dynIL,
		"interp.mil_per_s":       dynIL / run.lane.Seconds() / 1e6,
		"interp.faults":          float64(faults),
		"profdb.resolve_s":       self("profdb.resolve"),
		"compile.interp_share":   rd.tr.wallUnder("compile", "interp.translate", "interp.run").Seconds() / compile,
		"compile.compiler_share": rd.tr.wallUnder("compile", compilerLayers...).Seconds() / compile,
	}
}

// addLayerMetrics reports the medians over traced rounds of every
// per-layer value defined in perLayerDefs.
func addLayerMetrics(rep *report, per map[string][]float64, rounds int) {
	for _, d := range perLayerDefs {
		if v, ok := per[d.name]; ok {
			rep.addLayer(d, median(v), rounds)
		}
	}
}

// allocsMetric reports heap allocations per Machine.Run. It needs a
// serial pass, because MemStats.Mallocs is process-wide; the pass runs
// after the measured rounds, on fresh builds, over up to three inputs
// per program.
func allocsMetric(rep *report, jobs []*job) {
	var allocs uint64
	var runs int
	for _, j := range jobs {
		b, err := j.compile(nil, 0, &layerCounts{})
		if err != nil {
			continue
		}
		a, n := j.allocsPerRun(b, 3)
		allocs += a
		runs += n
	}
	rep.addLayer(defByName("interp.allocs_per_run"), float64(allocs)/float64(max(runs, 1)), runs)
}

// layerMetrics reports the per-layer metrics of a compile workload's
// traced rounds and the tracing overhead.
func layerMetrics(rep *report, jobs []*job, plain, traced []*round) {
	per := map[string][]float64{}
	for _, rd := range traced {
		for k, v := range layerValues(rd, jobs) {
			per[k] = append(per[k], v)
		}
	}
	addLayerMetrics(rep, per, len(traced))
	allocsMetric(rep, jobs)
	addOverhead(rep, plain, traced)
	rep.detail = append(rep.detail, shareLine(per))
}

// shareLine reports which side of the compiler/interpreter split did
// compile_s's work in the traced rounds: the wall time each kept busy
// under the compile spans, as a share of compile_s.
func shareLine(per map[string][]float64) string {
	return fmt.Sprintf("share of compile_s (wall, median of %d traced round(s)): interp %.2f%%, compiler layers %.2f%%",
		len(per["compile.interp_share"]), 100*median(per["compile.interp_share"]), 100*median(per["compile.compiler_share"]))
}

// addOverhead reports how much longer traced rounds took than untraced.
func addOverhead(rep *report, plain, traced []*round) {
	var p, t []float64
	for _, rd := range plain {
		p = append(p, rd.total().Seconds())
	}
	for _, rd := range traced {
		t = append(t, rd.total().Seconds())
	}
	rep.addLayer(defByName("trace.overhead_pct"), 100*(median(t)/median(p)-1), len(p)+len(t))
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
