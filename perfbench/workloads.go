package main

import (
	"bufio"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/testgen"
)

// paperRefs holds, for every input of every suite program, the exit code,
// stdout SHA-256, dynamic IL and dynamic calls of the pre-inline module
// on the switch oracle engine. Regenerate with
// `go test -run TestPaperRefs -update` in this directory.
//
//go:embed testdata/paper_refs.txt
var paperRefs string

// paperNames is the paper's twelve programs plus funcptrs, the
// guarded-expansion kernel.
func paperNames() []string { return append(bench.SuiteNames(), "funcptrs") }

// paperParams is the configuration each suite program is inlined at:
// the paper's defaults, and for funcptrs the flags its BENCH_pr9.json row
// and the CI funcptrs gate use (-threshold 1 -sizelimit 3.0
// -devirt-threshold 0.9 -partial-inline -maxcallee 40).
func paperParams(name string) inlinec.Params {
	p := inlinec.DefaultParams()
	if name == "funcptrs" {
		p.WeightThreshold = 1
		p.SizeLimitFactor = 3.0
		p.DevirtThreshold = 0.9
		p.PartialInline = true
		p.MaxCalleeSize = 40
	}
	return p
}

// parseRefs reads the reference file: one line per input,
// "program input exit il calls sha256".
func parseRefs(text string) (map[string][]ref, error) {
	out := make(map[string][]ref)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 6 {
			return nil, fmt.Errorf("paper refs line %d: want 6 fields, have %d", line, len(f))
		}
		idx, err1 := strconv.Atoi(f[1])
		exit, err2 := strconv.ParseInt(f[2], 10, 64)
		il, err3 := strconv.ParseInt(f[3], 10, 64)
		calls, err4 := strconv.ParseInt(f[4], 10, 64)
		sum, err5 := hex.DecodeString(f[5])
		for _, err := range []error{err1, err2, err3, err4, err5} {
			if err != nil {
				return nil, fmt.Errorf("paper refs line %d: %v", line, err)
			}
		}
		if idx != len(out[f[0]]) || len(sum) != 32 {
			return nil, fmt.Errorf("paper refs line %d: malformed entry", line)
		}
		r := ref{exit: exit, il: il, calls: calls}
		copy(r.digest[:], sum)
		out[f[0]] = append(out[f[0]], r)
	}
	return out, sc.Err()
}

// formatRefs renders references in the file format parseRefs reads.
func formatRefs(name string, refs []ref) string {
	var sb strings.Builder
	for i, r := range refs {
		fmt.Fprintf(&sb, "%s %d %d %d %d %x\n", name, i, r.exit, r.il, r.calls, r.digest)
	}
	return sb.String()
}

// paperSetups is how many times paper-measured sets up; setup_s is the
// median.
const paperSetups = 5

// paperJobs builds the paper-measured workload: all 13 suite programs on
// their internal/bench inputs, each profiled over every input, in an
// order the seed sets. It re-runs every program's first input on the
// switch engine and checks it against the checked-in reference, so a
// reference file that no longer matches the suite fails before
// anything is measured.
func paperJobs(seed int64) ([]*job, error) {
	refs, err := parseRefs(paperRefs)
	if err != nil {
		return nil, err
	}
	names := paperNames()
	var jobs []*job
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(names)) {
		b := bench.Get(names[i])
		if len(refs[b.Name]) != len(b.Inputs) {
			return nil, fmt.Errorf("paper refs hold %d input(s) for %s, the suite %d",
				len(refs[b.Name]), b.Name, len(b.Inputs))
		}
		jobs = append(jobs, &job{name: b.Name, src: b.Source, inputs: b.Inputs,
			params: paperParams(b.Name), guide: guideMeasured, refs: refs[b.Name]})
	}
	errs := make([]error, len(jobs))
	forEach(len(jobs), func(i int) {
		j := jobs[i]
		got, err := referenceRuns(j.name, j.src, j.inputs[:1])
		if err == nil && got[0] != j.refs[0] {
			err = fmt.Errorf("%s: input 0 on the switch engine differs from testdata/paper_refs.txt", j.name)
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// The synthetic corpus: synthPool testgen programs from fixed seeds, of
// which each run draws synthPrograms in a seeded order. Outcomes per
// program are heavy-tailed (about a third of the programs expand
// nothing, a few lose 90% of their calls), so a free draw of 60 programs
// spread calls_removed_pct by ~50% across seeds; a seeded draw from a
// fixed corpus keeps every end-to-end metric steady while a claim still
// has to hold on seeds it was not tuned on.
const (
	synthPool     = 128
	synthPrograms = 120
	synthPoolSeed = 1989 // testgen seed of corpus program 0
	synthFuncs    = 40
	synthSetups   = 3
)

// synthShape turns every testgen shape option on.
var synthShape = testgen.Options{
	Funcs: synthFuncs, Recursion: true, Pointers: true, FuncPtrs: true,
	Extern: true, HotColdBodies: true, DominantFuncPtr: true,
}

// synthParams is guarded expansion at the funcptrs gate's settings,
// driven by predicted weights.
func synthParams() inlinec.Params { return paperParams("funcptrs") }

// synthJobs builds the synth-predicted workload: the seed draws the
// programs from the corpus and sets their order; reference outputs are
// computed on the switch engine. Generated programs read no input, so
// each runs once.
func synthJobs(seed int64) ([]*job, error) {
	draw := rand.New(rand.NewSource(seed)).Perm(synthPool)[:synthPrograms]
	jobs := make([]*job, len(draw))
	for i, k := range draw {
		jobs[i] = &job{
			name:   fmt.Sprintf("synth%03d", k),
			src:    testgen.Generate(synthPoolSeed+int64(k), synthShape),
			inputs: []inlinec.Input{{}},
			params: synthParams(),
			guide:  guidePredicted,
		}
	}
	errs := make([]error, len(jobs))
	forEach(len(jobs), func(i int) {
		jobs[i].refs, errs[i] = referenceRuns(jobs[i].name, jobs[i].src, jobs[i].inputs)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// forEach calls f(0..n-1) on up to GOMAXPROCS workers.
func forEach(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
