package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inlinec"
	"inlinec/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// espressoExplain runs the espresso benchmark's inline pipeline at the
// given worker count and returns its three deterministic artifacts: the
// -explain-inline report, the JSONL decision trace, and the final module.
func espressoExplain(t *testing.T, par int) (report string, jsonl []byte, module string) {
	t.Helper()
	return suiteExplain(t, "espresso", par)
}

// suiteExplain runs one suite benchmark's inline pipeline on its first
// input at default parameters and returns the same three artifacts.
func suiteExplain(t *testing.T, name string, par int) (report string, jsonl []byte, module string) {
	t.Helper()
	b := Get(name)
	if b == nil {
		t.Fatalf("%s benchmark missing", name)
	}
	p, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = par
	prof, err := p.ProfileInputs(b.Inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Inline(prof, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteInlineTraceJSONL(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	// Acceptance: every arc that put no code into the caller must carry a
	// specific machine-readable rejection reason — never an empty one —
	// and every accepted arc (full, partial, or devirtualized) must not.
	for _, ev := range res.Trace {
		if !ev.Outcome.IsAccepted() && ev.Reason == obs.ReasonNone {
			t.Errorf("%s: arc %d (%s <- %s, %s) has no rejection reason",
				name, ev.Site, ev.Caller, ev.Callee, ev.Outcome)
		}
		if ev.Outcome.IsAccepted() && ev.Reason != obs.ReasonNone {
			t.Errorf("%s: accepted arc %d (%s <- %s, %s) carries rejection reason %s",
				name, ev.Site, ev.Caller, ev.Callee, ev.Outcome, ev.Reason)
		}
	}
	return obs.FormatInlineReport(res.Order, res.Trace), buf.Bytes(), p.Module.String()
}

// checkGolden compares got against testdata/<file>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s (run with -update to refresh):\n--- got ---\n%s", golden, got)
	}
}

// TestSuiteExplainGolden pins every suite program's -explain-inline
// report (first input, Parallelism 1) to a checked-in golden file, so
// any drift in decisions, rejection reasons, or report formatting is a
// reviewed diff. Refresh with `go test ./internal/bench -run
// ExplainGolden -update`.
func TestSuiteExplainGolden(t *testing.T) {
	for _, name := range SuiteNames() {
		t.Run(name, func(t *testing.T) {
			report, _, _ := suiteExplain(t, name, 1)
			checkGolden(t, name+"_explain.golden", report)
		})
	}
}

// funcPtrsExplain runs the funcptrs benchmark's pipeline with guarded
// expansion on (partial inlining + devirtualization at 0.9 dominance
// under a tight per-callee limit) and returns the same three artifacts.
func funcPtrsExplain(t *testing.T, par int) (report string, jsonl []byte, module string) {
	t.Helper()
	b := Get("funcptrs")
	if b == nil {
		t.Fatal("funcptrs benchmark missing")
	}
	p, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = par
	prof, err := p.ProfileInputs(b.Inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	params := inlinec.DefaultParams()
	params.WeightThreshold = 1
	params.SizeLimitFactor = 3.0
	params.MaxCalleeSize = 40
	params.PartialInline = true
	params.DevirtThreshold = 0.9
	res, err := p.Inline(prof, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteInlineTraceJSONL(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Trace {
		if !ev.Outcome.IsAccepted() && ev.Reason == obs.ReasonNone {
			t.Errorf("arc %d (%s <- %s, %s) has no rejection reason",
				ev.Site, ev.Caller, ev.Callee, ev.Outcome)
		}
	}
	return obs.FormatInlineReport(res.Order, res.Trace), buf.Bytes(), p.Module.String()
}

// TestFuncPtrsExplainGolden pins the guarded-expansion decision report:
// the partial_inlined and devirtualized sections and the
// devirt_below_threshold rejection must all appear, and the exact
// report is a reviewed diff. Refresh with `go test ./internal/bench
// -run FuncPtrsExplainGolden -update`.
func TestFuncPtrsExplainGolden(t *testing.T) {
	report, _, _ := funcPtrsExplain(t, 1)
	for _, want := range []string{
		"partially inlined (hot entry region + guarded fallback)",
		"devirtualized (guarded test-and-inline of dominant target)",
		string(obs.ReasonDevirtBelowThreshold),
	} {
		if !strings.Contains(report, want) {
			t.Errorf("funcptrs explain report is missing %q:\n%s", want, report)
		}
	}
	checkGolden(t, "funcptrs_explain.golden", report)
}

// TestFuncPtrsExplainDeterministic: guarded expansion's artifacts are
// byte-identical at any worker count, like plain expansion's.
func TestFuncPtrsExplainDeterministic(t *testing.T) {
	refReport, refJSONL, refModule := funcPtrsExplain(t, 1)
	for _, par := range []int{2, 8} {
		report, jsonl, module := funcPtrsExplain(t, par)
		if report != refReport {
			t.Errorf("explain report differs between Parallelism 1 and %d", par)
		}
		if !bytes.Equal(jsonl, refJSONL) {
			t.Errorf("JSONL trace differs between Parallelism 1 and %d", par)
		}
		if module != refModule {
			t.Errorf("expanded module differs between Parallelism 1 and %d", par)
		}
	}
}

// TestEspressoExplainDeterministic: the report, the JSONL trace, and the
// expanded module are byte-identical at any worker count.
func TestEspressoExplainDeterministic(t *testing.T) {
	refReport, refJSONL, refModule := espressoExplain(t, 1)
	for _, par := range []int{2, 8} {
		report, jsonl, module := espressoExplain(t, par)
		if report != refReport {
			t.Errorf("explain report differs between Parallelism 1 and %d", par)
		}
		if !bytes.Equal(jsonl, refJSONL) {
			t.Errorf("JSONL trace differs between Parallelism 1 and %d", par)
		}
		if module != refModule {
			t.Errorf("expanded module differs between Parallelism 1 and %d", par)
		}
	}
}
