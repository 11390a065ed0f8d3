package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"inlinec/internal/callgraph"
)

// Table1 renders benchmark characteristics: static C lines, run counts,
// and per-run dynamic IL and control-transfer counts in thousands.
func Table1(results []*BenchResult) string {
	var sb strings.Builder
	sb.WriteString("Table 1. Benchmark characteristics.\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tC lines\truns\tIL's\tcontrol\tinput description")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0fK\t%.1fK\t%s\n",
			r.Name, r.CLines, r.Runs, r.AvgIL/1000, r.AvgControl/1000, r.InputDesc)
	}
	w.Flush()
	return sb.String()
}

// Table2 renders static call-site characteristics: total sites and the
// percentage that are external, through pointers, unsafe, and safe.
func Table2(results []*BenchResult) string {
	var sb strings.Builder
	sb.WriteString("Table 2. Static function call characteristics.\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\ttotal\texternal\tpointer\tunsafe\tsafe")
	var ext, ptr, uns, safe []float64
	for _, r := range results {
		total := float64(r.Classes.TotalStatic())
		pc := func(c callgraph.SiteClass) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(r.Classes.Static[c]) / total
		}
		e, p, u, s := pc(callgraph.ClassExternal), pc(callgraph.ClassPointer),
			pc(callgraph.ClassUnsafe), pc(callgraph.ClassSafe)
		ext, ptr, uns, safe = append(ext, e), append(ptr, p), append(uns, u), append(safe, s)
		fmt.Fprintf(w, "%s\t%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Name, r.Classes.TotalStatic(), e, p, u, s)
	}
	writeAvgSD4(w, ext, ptr, uns, safe, "")
	w.Flush()
	return sb.String()
}

// Table3 renders dynamic call behaviour: total dynamic calls (thousands)
// and the percentage by class, weighted by invocation counts.
func Table3(results []*BenchResult) string {
	var sb strings.Builder
	sb.WriteString("Table 3. Dynamic function call behavior.\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tcalls\texternal\tpointer\tunsafe\tsafe")
	var ext, ptr, uns, safe []float64
	for _, r := range results {
		total := r.Classes.TotalDynamic()
		pc := func(c callgraph.SiteClass) float64 {
			if total == 0 {
				return 0
			}
			return 100 * r.Classes.Dynamic[c] / total
		}
		e, p, u, s := pc(callgraph.ClassExternal), pc(callgraph.ClassPointer),
			pc(callgraph.ClassUnsafe), pc(callgraph.ClassSafe)
		ext, ptr, uns, safe = append(ext, e), append(ptr, p), append(uns, u), append(safe, s)
		fmt.Fprintf(w, "%s\t%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Name, kilo(total), e, p, u, s)
	}
	writeAvgSD4(w, ext, ptr, uns, safe, "")
	w.Flush()
	return sb.String()
}

// Table4 renders the paper's headline results: static code increase,
// dynamic call decrease, and the post-inline ILs and control transfers
// per remaining call, with AVG and SD rows.
func Table4(results []*BenchResult) string {
	var sb strings.Builder
	sb.WriteString("Table 4. Inline expansion results.\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tcode inc\tcall dec\tIL's per call\tCT's per call")
	var incs, decs, ils, cts []float64
	for _, r := range results {
		inc := 100 * r.CodeInc
		dec := 100 * r.CallDec
		incs, decs = append(incs, inc), append(decs, dec)
		ils, cts = append(ils, r.ILPerCall), append(cts, r.CTPerCall)
		fmt.Fprintf(w, "%s\t%.0f%%\t%.0f%%\t%.0f\t%.0f\n", r.Name, inc, dec, r.ILPerCall, r.CTPerCall)
	}
	mi, si := meanSD(incs)
	md, sd := meanSD(decs)
	mil, sil := meanSD(ils)
	mct, sct := meanSD(cts)
	fmt.Fprintf(w, "AVG\t%.1f%%\t%.1f%%\t%.0f\t%.0f\n", mi, md, mil, mct)
	fmt.Fprintf(w, "SD\t%.1f%%\t%.1f%%\t%.0f\t%.0f\n", si, sd, sil, sct)
	w.Flush()
	return sb.String()
}

// Table4x renders the section 4.4 epilogue: the class mix of the dynamic
// calls that remain after inline expansion, averaged across benchmarks
// (the paper reports external 56.1%, pointer 2.8%, unsafe 18.0%,
// safe 23.1%).
func Table4x(results []*BenchResult) string {
	var sb strings.Builder
	sb.WriteString("Post-inline dynamic call mix (section 4.4).\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\texternal\tpointer\tunsafe\tsafe")
	var cols [4][]float64
	for _, r := range results {
		for i := 0; i < 4; i++ {
			cols[i] = append(cols[i], 100*r.PostMix[i])
		}
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Name, 100*r.PostMix[0], 100*r.PostMix[1], 100*r.PostMix[2], 100*r.PostMix[3])
	}
	writeAvgSD4(w, cols[0], cols[1], cols[2], cols[3], "")
	w.Flush()
	return sb.String()
}

// kilo formats a count in thousands, keeping precision for tiny values
// (wc makes ~10 calls per run; "0.0K" would hide it).
func kilo(v float64) string {
	if v < 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.1fK", v/1000)
}

func writeAvgSD4(w *tabwriter.Writer, a, b, c, d []float64, suffix string) {
	ma, _ := meanSD(a)
	mb, _ := meanSD(b)
	mc, _ := meanSD(c)
	md, _ := meanSD(d)
	fmt.Fprintf(w, "AVG\t%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n", suffix, ma, mb, mc, md)
}

// AllTables renders the complete experiment report.
func AllTables(results []*BenchResult) string {
	return Table1(results) + "\n" + Table2(results) + "\n" +
		Table3(results) + "\n" + Table4(results) + "\n" + Table4x(results)
}
