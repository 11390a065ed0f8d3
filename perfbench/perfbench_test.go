package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"inlinec/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_refs.txt from switch-engine runs")

// TestPaperRefs recomputes every suite input's reference run on the
// switch oracle engine and compares it with the checked-in digests the
// paper-measured workload checks outputs against.
func TestPaperRefs(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs the whole suite on the switch engine")
	}
	var sb strings.Builder
	sb.WriteString("# program input exit dyn_il dyn_calls sha256(stdout): pre-inline module on the switch engine\n")
	for _, name := range paperNames() {
		b := bench.Get(name)
		refs, err := referenceRuns(b.Name, b.Source, b.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(formatRefs(b.Name, refs))
	}
	if *update {
		if err := os.WriteFile("testdata/paper_refs.txt", []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if sb.String() != paperRefs {
		t.Fatal("testdata/paper_refs.txt is stale; rerun with -update")
	}
}

// TestCrossCheckIlbench pins the benchmark to the paper's pipeline: on
// every suite program, the code growth, calls removed and dynamic-IL
// ratio the benchmark measures, traced or not, equal what
// `ilbench -json -parallel 1` reports (bench.RunOne at Parallelism 1).
// Short mode caps each program at two inputs.
func TestCrossCheckIlbench(t *testing.T) {
	maxRuns := 0
	if testing.Short() {
		maxRuns = 2
	}
	jobs, err := paperJobs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		cfg := bench.DefaultConfig()
		cfg.Inline = paperParams(j.name)
		cfg.Parallelism = 1
		cfg.MaxRuns = maxRuns
		want, err := bench.RunOne(bench.Get(j.name), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if maxRuns > 0 {
			j.inputs, j.refs = j.inputs[:maxRuns], j.refs[:maxRuns]
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			r := j.run(tr, true)
			if r.failed != 0 {
				t.Fatalf("%s (traced %v): %v", j.name, tr != nil, r.wrongOrFaulted)
			}
			check := func(what string, got, want float64) {
				if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Errorf("%s (traced %v) %s = %v, ilbench %v", j.name, tr != nil, what, got, want)
				}
			}
			check("code_growth_pct", r.codeGrowthPct(), 100*want.CodeInc)
			check("calls_removed_pct", r.callsRemovedPct(), 100*want.CallDec)
			check("dyn_il_ratio", r.ilAfter/r.ilBefore, want.AvgILAfter/want.AvgIL)
			if r.expansions != want.Expansions {
				t.Errorf("%s (traced %v) expansions = %d, ilbench %d", j.name, tr != nil, r.expansions, want.Expansions)
			}
			if !testing.Short() {
				pinned := map[string][2]float64{"espresso": {30.8544, 97.4633}, "funcptrs": {18.9415, 88.3632}}
				if p, ok := pinned[j.name]; ok {
					check("pinned code_growth_pct", math.Round(r.codeGrowthPct()*1e4)/1e4, p[0])
					check("pinned calls_removed_pct", math.Round(r.callsRemovedPct()*1e4)/1e4, p[1])
				}
			}
		}
	}
}

// TestSelfTime checks the span arithmetic: self time subtracts the part
// of a span its children cover, once even where children overlap, and
// wall time is the union of a name's intervals.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := newTracer()
	tr.spans = []span{
		{id: 1, name: "compile", start: 0, end: 100 * ms},
		{id: 2, parent: 1, name: "interp.run", start: 10 * ms, end: 60 * ms},
		{id: 3, parent: 1, name: "interp.run", start: 40 * ms, end: 90 * ms},
		{id: 4, parent: 1, name: "ir.verify", start: 95 * ms, end: 120 * ms},
	}
	lt := tr.analyze()
	if got := lt["compile"].self; got != 15*ms {
		t.Errorf("compile self = %v, want 15ms", got)
	}
	run := lt["interp.run"]
	if run.lane != 100*ms || run.wall != 80*ms || run.calls != 2 {
		t.Errorf("interp.run lane %v wall %v calls %d, want 100ms 80ms 2", run.lane, run.wall, run.calls)
	}
	if got := tr.wallUnder("compile", "interp.run", "ir.verify"); got != 105*ms {
		t.Errorf("wall under compile = %v, want 105ms", got)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the metrics this program prints: the end-to-end metrics, and the
// per-layer metrics of the --trace 1 result line, by name, unit and
// direction.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var wantLayer []metricDef
	for _, d := range perLayerDefs {
		if d.result {
			wantLayer = append(wantLayer, d)
		}
	}
	for _, c := range []struct {
		what string
		got  []metricJSON
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndDefs}, {"per_layer", doc.PerLayer, wantLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s lists %d metrics, the program reports %d", c.what, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, the program reports %s %s %s", c.what, i, g, d.name, d.unit, d.better)
			}
		}
	}
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}
