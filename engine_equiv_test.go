package inlinec

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"inlinec/internal/interp"
	"inlinec/internal/obs"
	"inlinec/internal/testgen"
)

// engineArtifacts runs the complete methodology — profile, inline with a
// decision trace, re-run — on one engine at one worker count and returns
// every byte stream the cross-engine equivalence contract covers: the
// serialized profile, the JSONL decision trace, the explain report, the
// expanded module, and the post-inline run's observable output.
type engineArtifacts struct {
	profile string
	jsonl   string
	report  string
	module  string
	stdout  string
	exit    int64
}

func collectEngineArtifacts(t *testing.T, src, engine string, par int) engineArtifacts {
	t.Helper()
	p, err := Compile("equiv.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p.Engine = engine
	p.Parallelism = par
	inputs := []Input{{}, {Stdin: []byte("7\n")}, {Stdin: []byte("1 2 3\n")}, {}}
	prof, err := p.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	var pb strings.Builder
	if _, err := prof.WriteTo(&pb); err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.WeightThreshold = 1
	params.SizeLimitFactor = 2.0
	res, err := p.Inline(prof, params)
	if err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := obs.WriteInlineTraceJSONL(&jb, res.Trace); err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(inputs[1])
	if err != nil {
		t.Fatal(err)
	}
	return engineArtifacts{
		profile: pb.String(),
		jsonl:   jb.String(),
		report:  obs.FormatInlineReport(res.Order, res.Trace),
		module:  p.Module.String(),
		stdout:  out.Stdout,
		exit:    out.ExitCode,
	}
}

// TestEngineEquivalence: the bytecode engine is bit-identical to the
// switch oracle — profiles, inline-decision traces, expanded modules, and
// program output — across program shapes that exercise every dispatch
// path (recursion, pointers, indirect calls, externs) and at every
// parallelism (reuse sequences differ by worker count, so this also
// pins memory Reset exactness).
func TestEngineEquivalence(t *testing.T) {
	shapes := []struct {
		name string
		opts testgen.Options
	}{
		{"plain", testgen.Options{}},
		{"recursion", testgen.Options{Recursion: true}},
		{"pointers", testgen.Options{Pointers: true}},
		{"funcptrs", testgen.Options{FuncPtrs: true, Funcs: 8}},
		{"extern", testgen.Options{Extern: true}},
		{"everything", testgen.Options{Recursion: true, Pointers: true, FuncPtrs: true, Extern: true, Funcs: 10, MaxStmts: 8}},
	}
	for si, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			src := testgen.Generate(int64(1000+si), shape.opts)
			ref := collectEngineArtifacts(t, src, interp.EngineSwitch, 1)
			for _, par := range []int{1, 2, 8} {
				got := collectEngineArtifacts(t, src, interp.EngineBytecode, par)
				if got != ref {
					t.Errorf("bytecode engine at Parallelism %d diverges from switch oracle:\nprofile equal: %v\njsonl equal: %v\nreport equal: %v\nmodule equal: %v\nstdout equal: %v\nexit: %d vs %d",
						par, got.profile == ref.profile, got.jsonl == ref.jsonl,
						got.report == ref.report, got.module == ref.module,
						got.stdout == ref.stdout, got.exit, ref.exit)
				}
			}
		})
	}
}

// runBothEngines executes one module on both engines with identical
// options and compares every observable: output streams, error text,
// and the full RunStats including the per-function and per-site maps.
func runBothEngines(t *testing.T, src string, maxIL int64) {
	t.Helper()
	p, err := Compile("both.c", src)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		stdout, stderr, errText string
		stats                   RunStats
	}
	runOn := func(engine string) outcome {
		env := interp.NewEnv()
		env.Stdin = []byte("5\n")
		m, err := interp.NewMachine(p.Module, env, interp.Options{
			Engine: engine, MaxIL: maxIL, StackSize: 1 << 20, HeapSize: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, rerr := m.Run()
		o := outcome{stdout: env.Stdout.String(), stderr: env.Stderr.String(), stats: *st}
		if rerr != nil {
			o.errText = rerr.Error()
		}
		return o
	}
	sw := runOn(interp.EngineSwitch)
	bc := runOn(interp.EngineBytecode)
	if sw.errText != bc.errText {
		t.Fatalf("error divergence (maxIL=%d):\nswitch:   %q\nbytecode: %q", maxIL, sw.errText, bc.errText)
	}
	if sw.stdout != bc.stdout || sw.stderr != bc.stderr {
		t.Fatalf("output divergence (maxIL=%d):\nswitch stdout %q stderr %q\nbytecode stdout %q stderr %q",
			maxIL, sw.stdout, sw.stderr, bc.stdout, bc.stderr)
	}
	if !reflect.DeepEqual(sw.stats, bc.stats) {
		t.Fatalf("stats divergence (maxIL=%d):\nswitch:   %+v\nbytecode: %+v", maxIL, sw.stats, bc.stats)
	}
}

// TestEngineBudgetFaultEquivalence: the two engines fault identically —
// same error text, same partial counters — when the instruction budget
// trips at arbitrary points, including inside would-be-fused pairs.
func TestEngineBudgetFaultEquivalence(t *testing.T) {
	src := testgen.Generate(7, testgen.Options{Recursion: true, Pointers: true, Extern: true})
	for _, maxIL := range []int64{1, 2, 3, 5, 17, 100, 1001, 1 << 40} {
		t.Run(fmt.Sprintf("maxIL=%d", maxIL), func(t *testing.T) {
			runBothEngines(t, src, maxIL)
		})
	}
}

// TestEngineRuntimeFaultEquivalence: runtime faults (division by zero,
// stray pointers, stack overflow) carry identical error text on both
// engines.
func TestEngineRuntimeFaultEquivalence(t *testing.T) {
	progs := []struct{ name, src string }{
		{"divzero", `int main() { int a; int b; a = 10; b = 0; return a / b; }`},
		{"badload", `int main() { int *p; p = (int*)7; return *p; }`},
		{"overflow", `int f(int n) { int pad[200]; pad[0] = n; return f(n + 1) + pad[0]; }
int main() { return f(0); }`},
		{"badcallptr", `int main() { int (*fp)(); fp = (int(*)())12345; return fp(); }`},
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			runBothEngines(t, p.src, 1<<20)
		})
	}
}

// TestEngineOptionValidation: an unknown engine name is rejected up
// front, not at run time.
func TestEngineOptionValidation(t *testing.T) {
	p, err := Compile("v.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	_, err = interp.NewMachine(p.Module, interp.NewEnv(), interp.Options{Engine: "threaded"})
	if err == nil || !strings.Contains(err.Error(), "unknown interpreter engine") {
		t.Fatalf("want unknown-engine error, got %v", err)
	}
	for _, engine := range []string{"", interp.EngineBytecode, interp.EngineSwitch} {
		m, err := interp.NewMachine(p.Module, interp.NewEnv(), interp.Options{Engine: engine})
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		want := engine
		if want == "" {
			want = interp.EngineBytecode
		}
		if m.Engine() != want {
			t.Fatalf("engine %q resolved to %q", engine, m.Engine())
		}
	}
}

// FuzzEngineEquivalence is the differential fuzz target: generate a
// program from the seed and shape bits, run it on both engines (with a
// possibly tiny instruction budget, so faults land mid-execution), and
// require identical outputs, error text, and profile counters. Shape
// bits 0-3 pick program features. Bits 4-7 once picked a reduced
// profiling mode and sampling rate; they are now ignored, and kept in
// the seeds so existing corpora stay valid. A non-zero heapProbe
// replaces the generated program with heapProbeSrc's.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), int64(0), int64(0))
	f.Add(int64(2), uint8(1), int64(0), int64(0))
	f.Add(int64(3), uint8(2), int64(1000), int64(0))
	f.Add(int64(4), uint8(4), int64(0), int64(0))  // function pointers
	f.Add(int64(5), uint8(8), int64(0), int64(0))  // externs
	f.Add(int64(6), uint8(15), int64(0), int64(0)) // everything
	f.Add(int64(7), uint8(15), int64(37), int64(0))
	f.Add(int64(8), uint8(5), int64(123456), int64(0))
	f.Add(int64(9), uint8(15|1<<4), int64(0), int64(0))        // bits 4-7 unused
	f.Add(int64(10), uint8(15|2<<4|1<<6), int64(0), int64(0))  // bits 4-7 unused
	f.Add(int64(11), uint8(15|2<<4|2<<6), int64(93), int64(0)) // tiny budget
	f.Add(int64(12), uint8(0), int64(0), int64(8|3000<<6))     // last 8 heap bytes, past the prefix
	f.Add(int64(13), uint8(0), int64(0), int64(5))             // load8 straddling the heap's end
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, budget, heapProbe int64) {
		opts := testgen.Options{
			Recursion: shape&1 != 0,
			Pointers:  shape&2 != 0,
			FuncPtrs:  shape&4 != 0,
			Extern:    shape&8 != 0,
		}
		src := testgen.Generate(seed, opts)
		if heapProbe != 0 {
			src = heapProbeSrc(heapProbe)
		}
		maxIL := int64(1 << 30)
		if budget != 0 {
			if budget < 0 {
				budget = -budget
			}
			maxIL = 1 + budget%200000
		}
		runBothEngines(t, src, maxIL)
	})
}

// heapProbeSrc is a program that works at the end of runBothEngines's
// 1 MiB heap, where the allocated prefix, the segment limit and the
// fault meet. It first grows the heap part way with malloc, then loads,
// stores and scans a string at back bytes before the heap's end; back
// below 8 puts the 8-byte accesses across or past the end.
func heapProbeSrc(probe int64) string {
	back := probe % 64
	grow := (probe >> 6) % (1 << 20)
	return fmt.Sprintf(`extern int malloc(int n);
extern int strlen(char *s);
extern int printf(char *f, ...);
int main() {
	int *p; char *s;
	malloc(%d);
	p = (int*)%d;
	s = (char*)p;
	printf("%%d %%d\n", *p, strlen(s));
	*p = 0x616263;
	printf("%%d %%d\n", *p, strlen(s));
	s[1] = 0;
	return strlen(s) + s[7];
}`, grow, interp.HeapBase+1<<20-back)
}
