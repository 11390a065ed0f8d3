package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inlinec"
	"inlinec/internal/callgraph"
	"inlinec/internal/inline"
	"inlinec/internal/interp"
	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/obs"
	"inlinec/internal/opt"
	"inlinec/internal/parser"
	"inlinec/internal/predict"
	"inlinec/internal/profdb"
	"inlinec/internal/profile"
	"inlinec/internal/sema"
)

// guide selects where a job's inlining weights come from.
type guide int

const (
	// guideMeasured profiles the module over every input first
	// (Program.ProfileInputs), as ilcc -inline -profile does.
	guideMeasured guide = iota
	// guidePredicted synthesizes weights from static features with zero
	// profiling runs (Program.PredictProfile).
	guidePredicted
	// guideFleet fetches the merged record from a profile service and
	// resolves it onto the module (Client.FetchProfile, then
	// Program.HybridProfileFromRecord), as ilcc -profdb does.
	guideFleet
)

// ref is one input's reference behaviour: the pre-inline module run on
// the switch oracle engine.
type ref struct {
	exit   int64
	digest [32]byte
	il     int64
	calls  int64
}

// job is one program taken from source to evaluated inlined module.
type job struct {
	name   string
	src    string
	inputs []inlinec.Input
	params inlinec.Params
	guide  guide
	client *profdb.Client // guideFleet only
	refs   []ref
}

// row is one program's outcome in one round. Everything except the two
// durations is deterministic and must repeat exactly.
type row struct {
	name           string
	compile, eval  time.Duration
	expansions     int
	partial        int
	devirt         int
	origSize       int
	finalSize      int
	ilBefore       float64 // dynamic IL per run, pre-inline
	ilAfter        float64 // dynamic IL per run, inlined
	callsBefore    float64
	callsAfter     float64
	runs, failed   int
	faults         int // runs that faulted instead of finishing
	compileFailed  bool
	modHash        [32]byte
	cacheLookups   int
	cacheHits      int
	layer          layerCounts // traced rounds only
	wrongOrFaulted []string
}

// layerCounts are the per-layer work counts only a traced round sees.
type layerCounts struct {
	srcLines, staticIL, ilRemoved int
	predictSites, arcs            int
	exactSites, resolvedSites     int
}

// counts renders the deterministic part of a row, for the determinism
// check across rounds and between traced and untraced rounds.
func (r *row) counts() string {
	return fmt.Sprintf("%s exp=%d partial=%d devirt=%d size=%d->%d il=%v->%v calls=%v->%v runs=%d failed=%d mod=%x",
		r.name, r.expansions, r.partial, r.devirt, r.origSize, r.finalSize,
		r.ilBefore, r.ilAfter, r.callsBefore, r.callsAfter, r.runs, r.failed, r.modHash[:8])
}

func (r *row) codeGrowthPct() float64 {
	return 100 * float64(r.finalSize-r.origSize) / float64(r.origSize)
}

func (r *row) callsRemovedPct() float64 {
	if r.callsBefore == 0 {
		return 0
	}
	return 100 * (r.callsBefore - r.callsAfter) / r.callsBefore
}

// built is a compiled, inlined and verified module.
type built struct {
	prog   *inlinec.Program // untraced rounds: the public Program
	mod    *ir.Module
	res    *inline.Result
	before *profile.Profile // measured guide only
}

// run executes one job: compile (timed as compile_s), then, when eval
// is set, evaluate every input (timed as eval_s). tr is nil for untraced
// rounds; a failure is recorded in the row, never returned, so one bad
// program cannot hide the others' numbers.
func (j *job) run(tr *tracer, eval bool) *row {
	r := &row{name: j.name}
	if eval {
		r.runs = len(j.inputs)
	}
	t0 := time.Now()
	root := tr.start("compile", 0)
	b, err := j.compile(tr, root.id, &r.layer)
	root.end()
	r.compile = time.Since(t0)
	if err != nil {
		r.compileFailed = true
		r.failed = r.runs
		r.wrongOrFaulted = append(r.wrongOrFaulted, "compile: "+err.Error())
		return r
	}
	r.expansions = b.res.NumExpansions
	for _, ev := range b.res.Trace {
		switch ev.Outcome {
		case obs.OutcomePartialInlined:
			r.partial++
		case obs.OutcomeDevirtualized:
			r.devirt++
		}
	}
	r.origSize = b.res.OriginalSize
	r.finalSize = b.mod.TotalCodeSize()
	r.cacheLookups, r.cacheHits = b.res.Cache.Lookups, b.res.Cache.Hits
	r.modHash = sha256.Sum256([]byte(b.mod.String()))

	var il, calls int64
	for _, rf := range j.refs {
		il += rf.il
		calls += rf.calls
	}
	n := float64(len(j.refs))
	r.ilBefore, r.callsBefore = float64(il)/n, float64(calls)/n
	if b.before != nil && (b.before.AvgIL() != r.ilBefore || b.before.AvgCalls() != r.callsBefore) {
		r.failed++
		r.wrongOrFaulted = append(r.wrongOrFaulted, fmt.Sprintf(
			"measured profile disagrees with the references: il %v vs %v, calls %v vs %v",
			b.before.AvgIL(), r.ilBefore, b.before.AvgCalls(), r.callsBefore))
	}

	if !eval {
		return r
	}
	t0 = time.Now()
	root = tr.start("eval", 0)
	ev := j.evaluate(b, tr, root.id)
	root.end()
	r.eval = time.Since(t0)
	r.ilAfter, r.callsAfter = ev.il/n, ev.calls/n
	r.failed += len(ev.bad)
	r.faults = ev.faults
	r.wrongOrFaulted = append(r.wrongOrFaulted, ev.bad...)
	return r
}

// compile takes the source to a verified inlined module. Untraced, it
// goes through the public entry points ilcc -inline uses; traced, it
// makes the same calls one layer down so each can be timed.
func (j *job) compile(tr *tracer, parent int64, lc *layerCounts) (*built, error) {
	if tr == nil {
		p, err := inlinec.Compile(j.name+".c", j.src)
		if err != nil {
			return nil, err
		}
		var prof *inlinec.Profile
		switch j.guide {
		case guideMeasured:
			if prof, err = p.ProfileInputs(j.inputs...); err != nil {
				return nil, err
			}
		case guidePredicted:
			prof = p.PredictProfile()
		case guideFleet:
			_, rec, err := j.client.FetchProfile(p.Fingerprint(), nil)
			if err != nil {
				return nil, err
			}
			prof, _ = p.HybridProfileFromRecord(rec)
		}
		res, err := p.Inline(prof, j.params)
		if err != nil {
			return nil, err
		}
		if err := p.Module.Verify(); err != nil {
			return nil, err
		}
		b := &built{prog: p, mod: p.Module, res: res}
		if j.guide == guideMeasured {
			b.before = prof
		}
		return b, nil
	}

	// The traced path mirrors inlinec.Compile, Program.ProfileInputs,
	// Program.PredictProfile, Program.HybridProfileFromRecord and
	// Program.Inline call for call; the determinism check holds it to
	// the same module bytes as the untraced path.
	lc.srcLines = nonBlankLines(j.src)
	s := tr.start("frontend.parse", parent)
	file, err := parser.Parse(j.name+".c", j.src)
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.start("frontend.sema", parent)
	sp, err := sema.Check(file)
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.start("frontend.irgen", parent)
	mod, err := irgen.Generate(sp)
	s.end()
	if err != nil {
		return nil, err
	}
	lc.staticIL = mod.TotalCodeSize()
	s = tr.start("opt.preinline", parent)
	opt.PreInlineParallel(mod, 0)
	s.end()
	lc.ilRemoved = lc.staticIL - mod.TotalCodeSize()
	if err := verify(tr, parent, mod); err != nil {
		return nil, err
	}
	_ = mod.Clone() // inlinec.Compile keeps this pristine copy as Program.Original

	var prof *profile.Profile
	switch j.guide {
	case guideMeasured:
		if prof, err = profileTraced(tr, parent, mod, j.inputs); err != nil {
			return nil, err
		}
	case guidePredicted:
		prof = synthesize(tr, parent, mod, lc)
	case guideFleet:
		s = tr.start("profdb.fetch", parent)
		_, rec, err := j.client.FetchProfile(profdb.ModuleFingerprint(mod), nil)
		s.end()
		if err != nil {
			return nil, err
		}
		prof = resolveHybrid(tr, parent, mod, rec, lc)
	}

	params := j.params
	if params.Parallelism == 0 {
		params.Parallelism = runtime.GOMAXPROCS(0)
	}
	s = tr.start("callgraph.build", parent)
	g := callgraph.Build(mod, prof)
	s.end()
	lc.arcs = len(g.Arcs)
	s = tr.start("inline.expand", parent)
	res, err := inline.Expand(mod, g, prof, params)
	s.end()
	if err != nil {
		return nil, err
	}
	if err := verify(tr, parent, mod); err != nil {
		return nil, err
	}
	b := &built{mod: mod, res: res}
	if j.guide == guideMeasured {
		b.before = prof
	}
	return b, nil
}

func verify(tr *tracer, parent int64, mod *ir.Module) error {
	s := tr.start("ir.verify", parent)
	defer s.end()
	return mod.Verify()
}

// resolveHybrid is Program.HybridProfileFromRecord one layer down: the
// record resolves onto the module's site keys, exact sites keep their
// measured weights and the rest take predictions.
func resolveHybrid(tr *tracer, parent int64, mod *ir.Module, rec *profdb.Record, lc *layerCounts) *profile.Profile {
	s := tr.start("profdb.resolve", parent)
	measured, stats := rec.Resolve(profdb.ModuleKeys(mod))
	s.end()
	lc.exactSites += stats.ExactSites
	lc.resolvedSites += stats.Sites
	return predict.Hybrid(synthesize(tr, parent, mod, lc), measured, stats.ExactIDs)
}

func synthesize(tr *tracer, parent int64, mod *ir.Module, lc *layerCounts) *profile.Profile {
	s := tr.start("predict.synthesize", parent)
	prof := predict.Synthesize(mod, predict.DefaultModel())
	s.end()
	lc.predictSites = len(prof.SiteCounts)
	return prof
}

// profileTraced is Program.ProfileInputs at the default Parallelism:
// one reused Machine and Env per worker, runs merged in input order.
func profileTraced(tr *tracer, parent int64, mod *ir.Module, inputs []inlinec.Input) (*profile.Profile, error) {
	par := min(runtime.GOMAXPROCS(0), len(inputs))
	stats := make([]*profile.RunStats, len(inputs))
	errs := make([]error, len(inputs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := interp.NewEnv()
			var m *interp.Machine
			stack := 0
			for {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				in := inputs[i]
				env.Reset()
				clear(env.Files)
				for k, v := range in.Files {
					env.Files[k] = v
				}
				env.Stdin = in.Stdin
				if m == nil || stack != in.StackSize {
					s := tr.start("interp.translate", parent)
					m, errs[i] = interp.NewMachine(mod, env, interp.Options{StackSize: in.StackSize})
					s.end()
					if errs[i] != nil {
						m = nil
						continue
					}
					stack = in.StackSize
				}
				s := tr.start("interp.run", parent)
				stats[i], errs[i] = m.Run()
				s.end()
			}
		}()
	}
	wg.Wait()
	prof := profile.NewProfile()
	for i := range inputs {
		if errs[i] != nil {
			return nil, fmt.Errorf("profiling run %d: %w", i+1, errs[i])
		}
		prof.Add(stats[i])
	}
	return prof, nil
}

// evalResult totals one evaluation pass.
type evalResult struct {
	il, calls float64
	faults    int
	bad       []string
}

// evaluate runs the inlined module over every input on up to GOMAXPROCS
// workers and checks each run's stdout and exit code against the
// reference. Untraced runs go through Program.Run; traced runs make the
// same interp.NewMachine and Machine.Run calls directly.
func (j *job) evaluate(b *built, tr *tracer, parent int64) evalResult {
	par := min(runtime.GOMAXPROCS(0), len(j.inputs))
	type outcome struct {
		stdout string
		exit   int64
		stats  *profile.RunStats
		err    error
	}
	outs := make([]outcome, len(j.inputs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(j.inputs) {
					return
				}
				in := j.inputs[i]
				if tr == nil {
					out, err := b.prog.Run(in)
					if err != nil {
						outs[i].err = err
						continue
					}
					outs[i] = outcome{stdout: out.Stdout, exit: out.ExitCode, stats: out.Stats}
					continue
				}
				env := newEnv(in)
				s := tr.start("interp.translate", parent)
				m, err := interp.NewMachine(b.mod, env, interp.Options{StackSize: in.StackSize})
				s.end()
				if err != nil {
					outs[i].err = err
					continue
				}
				s = tr.start("interp.run", parent)
				st, err := m.Run()
				s.end()
				if err != nil {
					outs[i].err = err
					continue
				}
				outs[i] = outcome{stdout: env.Stdout.String(), exit: st.ExitCode, stats: st}
			}
		}()
	}
	wg.Wait()
	var ev evalResult
	for i, o := range outs {
		switch {
		case o.err != nil:
			ev.faults++
			ev.bad = append(ev.bad, fmt.Sprintf("input %d: fault: %v", i, o.err))
		case o.exit != j.refs[i].exit || sha256.Sum256([]byte(o.stdout)) != j.refs[i].digest:
			ev.bad = append(ev.bad, fmt.Sprintf("input %d: output differs from the reference (exit %d, want %d)", i, o.exit, j.refs[i].exit))
		}
		if o.stats != nil {
			ev.il += float64(o.stats.IL)
			ev.calls += float64(o.stats.Calls)
		}
	}
	return ev
}

// newEnv builds a fresh environment with a private copy of the input's
// files, as Program.Run does.
func newEnv(in inlinec.Input) *interp.Env {
	env := interp.NewEnv()
	for k, v := range in.Files {
		env.Files[k] = append([]byte(nil), v...)
	}
	env.Stdin = in.Stdin
	return env
}

// allocsPerRun runs up to limit inputs serially on the inlined module
// and averages the heap-allocation count (MemStats.Mallocs) taken around
// each Machine.Run. Serial, because Mallocs is process-wide.
func (j *job) allocsPerRun(b *built, limit int) (total uint64, runs int) {
	var before, after runtime.MemStats
	for i, in := range j.inputs {
		if i == limit {
			break
		}
		m, err := interp.NewMachine(b.mod, newEnv(in), interp.Options{StackSize: in.StackSize})
		if err != nil {
			continue
		}
		runtime.ReadMemStats(&before)
		_, err = m.Run()
		runtime.ReadMemStats(&after)
		if err == nil {
			total += after.Mallocs - before.Mallocs
			runs++
		}
	}
	return total, runs
}

// referenceRuns runs the pre-inline module on the switch oracle engine
// over every input. It is set-up work: the inlined module under test
// never influences it.
func referenceRuns(name, src string, inputs []inlinec.Input) ([]ref, error) {
	p, err := inlinec.Compile(name+".c", src)
	if err != nil {
		return nil, err
	}
	p.Engine = interp.EngineSwitch
	refs := make([]ref, len(inputs))
	for i, in := range inputs {
		out, err := p.RunOriginal(in)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run %d: %w", name, i, err)
		}
		refs[i] = ref{exit: out.ExitCode, digest: sha256.Sum256([]byte(out.Stdout)),
			il: out.Stats.IL, calls: out.Stats.Calls}
	}
	return refs, nil
}

func nonBlankLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// geomean is the geometric mean of positive values.
func geomean(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}
