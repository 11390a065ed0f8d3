package interp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/interp"
	"inlinec/internal/ir"
)

// maxDispatchPerIL pins the bytecode engine's dispatches per executed IL
// instruction over the whole suite. Before constants nothing reads were
// folded and negated compare-branches fused it was 0.737.
const maxDispatchPerIL = 0.55

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestDispatchCensus runs every suite program (the paper's twelve plus
// funcptrs) on every input through the switch engine's per-instruction
// trace and counts the events that start a bytecode dispatch, using the
// translated groups of a bytecode machine for the same module. It checks
// that execution only enters a group at its first component and walks
// its components in order, pins dispatches per IL, and logs the hottest
// remaining opcodes and adjacent opcode pairs (run with -v) as the next
// fusion candidates.
func TestDispatchCensus(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every suite input on one goroutine: skipped in -short and under -race")
	}
	var il, dispatches int64
	var ops [interp.NumDispatchOps]int64
	var pairs [interp.NumDispatchOps][interp.NumDispatchOps]int64
	for _, name := range append(bench.SuiteNames(), "funcptrs") {
		b := bench.Get(name)
		p, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		bm, err := interp.NewMachine(p.Module, interp.NewEnv(), interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		groups := interp.DispatchGroups(bm)
		for i, in := range b.Inputs {
			var (
				fn      *ir.Func
				table   []interp.DispatchGroup // groups[fn]
				next    int                    // pc of the group's next component
				left    int                    // components of the group still to come
				prevOp  = -1
				failure string
			)
			trace := func(f *ir.Func, pc int) {
				if left > 0 {
					if (f != fn || pc != next) && failure == "" {
						failure = fmt.Sprintf("%s: left group at %s:%d for %s:%d", name, fn.Name, next, f.Name, pc)
					}
					left--
					next++
					return
				}
				if f != fn {
					fn, table = f, groups[f]
				}
				g := table[pc]
				if g.N == 0 {
					if failure == "" {
						failure = fmt.Sprintf("%s: entered %s:%d, inside a group", name, f.Name, pc)
					}
					return
				}
				dispatches++
				ops[g.Op]++
				if prevOp >= 0 {
					pairs[prevOp][g.Op]++
				}
				prevOp = g.Op
				next, left = pc+1, g.N-1
			}
			env := interp.NewEnv()
			for k, v := range in.Files {
				env.Files[k] = append([]byte(nil), v...)
			}
			env.Stdin = in.Stdin
			m, err := interp.NewMachine(p.Module, env, interp.Options{StackSize: in.StackSize, Trace: trace})
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("%s input %d: %v", name, i, err)
			}
			if failure != "" {
				t.Fatalf("input %d: %s", i, failure)
			}
			il += st.IL
		}
	}
	ratio := float64(dispatches) / float64(il)
	t.Logf("%d dispatches for %d IL: %.3f dispatches per IL", dispatches, il, ratio)
	opCounts, pairCounts := map[string]int64{}, map[string]int64{}
	for a := range ops {
		opCounts[interp.DispatchOpName(a)] = ops[a]
		for b, n := range pairs[a] {
			pairCounts[interp.DispatchOpName(a)+" ; "+interp.DispatchOpName(b)] = n
		}
	}
	t.Logf("top opcodes (share of dispatches):\n%s", topShares(opCounts, dispatches, 12))
	t.Logf("top adjacent pairs (share of dispatches):\n%s", topShares(pairCounts, dispatches, 12))
	if ratio > maxDispatchPerIL {
		t.Errorf("%.3f dispatches per IL, want <= %.2f", ratio, maxDispatchPerIL)
	}
}

// topShares renders the n largest counts as percentages of total.
func topShares(counts map[string]int64, total int64, n int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var sb strings.Builder
	for _, k := range keys[:min(n, len(keys))] {
		fmt.Fprintf(&sb, "  %6.2f%%  %s\n", 100*float64(counts[k])/float64(total), k)
	}
	return sb.String()
}

// TestFoldedShapesProgram checks that testdata/folded_shapes.c, the
// program whose budget-fault sweep (TestEngineBudgetFaultEquivalence in
// the root package) pins fault exactness inside groups, really contains
// every group shape the translator forms: a dead constant folded ahead
// of each binary operator, a call and an address fusion; the frame and
// global address fusions; a plain compare-branch behind a dead constant;
// and a negated compare-branch with a dead constant inside it.
func TestFoldedShapesProgram(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "folded_shapes.c"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := inlinec.Compile("folded_shapes.c", string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(p.Module, interp.NewEnv(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	isConst := func(in *ir.Instr) bool {
		return in.Op == ir.OpConst || in.Op == ir.OpMov && in.A.Kind == ir.VKConst
	}
	seen := map[string]bool{}
	for f, table := range interp.DispatchGroups(m) {
		for pc, g := range table {
			if g.N == 0 {
				continue
			}
			op := interp.DispatchOpName(g.Op)
			seen[op] = true
			comps := f.Code[pc : pc+g.N]
			var core []ir.Op
			for i := range comps {
				if !isConst(&comps[i]) {
					core = append(core, comps[i].Op)
				}
			}
			if op != "const" && isConst(&comps[0]) {
				seen["dead+"+op] = true
			}
			if strings.HasSuffix(op, ".br") && len(core) == 3 && core[1] == ir.OpEq {
				seen["negated"] = true
			}
			if len(core) < len(comps) && !isConst(&comps[0]) {
				seen["mid-dead+"+op] = true
			}
		}
	}
	want := []string{
		"loadl1", "loadl8", "storel1", "storel8", "loadg1", "loadg8", "storeg1", "storeg8",
		"dead+call", "dead+loadl8", "dead+gt.br", "negated", "mid-dead+ge.br",
	}
	for _, op := range []string{"add", "sub", "mul", "div", "rem", "and", "or", "xor",
		"shl", "shr", "eq", "ne", "lt", "le", "gt", "ge"} {
		want = append(want, "dead+"+op)
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("folded_shapes.c translates without a %q group", w)
		}
	}
}
