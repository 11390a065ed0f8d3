// Package profile defines the execution-profile data the IMPACT-style
// pipeline collects: per-run dynamic counts and the averaged weights that
// become node and arc weights on the call graph. The paper's profiler
// "accumulates the average run-time statistics over many runs"; Merge does
// exactly that.
package profile

import (
	"fmt"
	"sort"
	"strings"
)

// RunStats holds the dynamic counts from one execution of a program.
type RunStats struct {
	// IL is the number of executed intermediate instructions (labels are
	// not instructions).
	IL int64
	// Control is the number of executed control transfers other than
	// call/return: unconditional jumps and conditional branches.
	Control int64
	// Calls is the total number of dynamic calls, including calls to
	// external functions and calls through pointers.
	Calls int64
	// Returns counts function returns (equals Calls for programs that run
	// to completion, modulo exit()).
	Returns int64
	// SiteCounts maps a static call-site id to its dynamic invocation
	// count (arc weights).
	SiteCounts map[int]int64
	// FuncCounts maps a function name to its entry count (node weights).
	FuncCounts map[string]int64
	// PtrTargets maps a pointer call-site id to its resolved-target
	// histogram (target function name -> invocation count), from which
	// the devirtualization decision reads its dominance fractions.
	PtrTargets map[int]map[string]int64
	// ExternCalls counts dynamic calls whose callee body is unavailable.
	ExternCalls int64
	// PtrCalls counts dynamic calls made through pointers.
	PtrCalls int64
	// MaxStack is the high-water control-stack usage in bytes.
	MaxStack int64
	// ExitCode is the program's exit status.
	ExitCode int64
	// Truncated is 1 when the run ended with Returns != Calls — an
	// exit()-style termination that unwound no frames. Truncated runs skew
	// averaged arc weights, so merges count them instead of hiding them.
	Truncated int64
}

// NewRunStats returns an empty, initialized RunStats.
func NewRunStats() *RunStats {
	return &RunStats{
		SiteCounts: make(map[int]int64),
		FuncCounts: make(map[string]int64),
		PtrTargets: make(map[int]map[string]int64),
	}
}

// AddPtrTarget records one resolved pointer-call target at a site.
func (rs *RunStats) AddPtrTarget(site int, target string, n int64) {
	if rs.PtrTargets == nil {
		rs.PtrTargets = make(map[int]map[string]int64)
	}
	m := rs.PtrTargets[site]
	if m == nil {
		m = make(map[string]int64)
		rs.PtrTargets[site] = m
	}
	m[target] += n
}

// Profile is the average of one or more runs: the weighted-call-graph
// inputs for inline expansion.
type Profile struct {
	Runs int
	// Totals across all runs; use the Avg* accessors for per-run values.
	TotalIL      int64
	TotalControl int64
	TotalCalls   int64
	TotalReturns int64
	TotalExtern  int64
	TotalPtr     int64
	// TotalTruncated counts runs that ended with Returns != Calls (exit()
	// or equivalent), which under-report returns relative to calls.
	TotalTruncated int64
	SiteCounts     map[int]int64
	FuncCounts     map[string]int64
	// PtrTargets accumulates per-target counts for pointer call sites
	// (site id -> target function name -> total count across runs); see
	// RunStats.PtrTargets.
	PtrTargets map[int]map[string]int64
	MaxStack   int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		SiteCounts: make(map[int]int64),
		FuncCounts: make(map[string]int64),
		PtrTargets: make(map[int]map[string]int64),
	}
}

// Add accumulates one run into the profile.
func (p *Profile) Add(rs *RunStats) {
	p.Runs++
	p.TotalIL += rs.IL
	p.TotalControl += rs.Control
	p.TotalCalls += rs.Calls
	p.TotalReturns += rs.Returns
	p.TotalExtern += rs.ExternCalls
	p.TotalPtr += rs.PtrCalls
	p.TotalTruncated += rs.Truncated
	for id, n := range rs.SiteCounts {
		p.SiteCounts[id] += n
	}
	for f, n := range rs.FuncCounts {
		p.FuncCounts[f] += n
	}
	for site, targets := range rs.PtrTargets {
		for t, n := range targets {
			p.AddPtrTarget(site, t, n)
		}
	}
	if rs.MaxStack > p.MaxStack {
		p.MaxStack = rs.MaxStack
	}
}

// AddPtrTarget accumulates one resolved pointer-call target count.
func (p *Profile) AddPtrTarget(site int, target string, n int64) {
	if p.PtrTargets == nil {
		p.PtrTargets = make(map[int]map[string]int64)
	}
	m := p.PtrTargets[site]
	if m == nil {
		m = make(map[string]int64)
		p.PtrTargets[site] = m
	}
	m[target] += n
}

func (p *Profile) avg(total int64) float64 {
	if p.Runs == 0 {
		return 0
	}
	return float64(total) / float64(p.Runs)
}

// AvgIL is the average dynamic IL count per run.
func (p *Profile) AvgIL() float64 { return p.avg(p.TotalIL) }

// AvgControl is the average dynamic control-transfer count per run.
func (p *Profile) AvgControl() float64 { return p.avg(p.TotalControl) }

// AvgCalls is the average dynamic call count per run.
func (p *Profile) AvgCalls() float64 { return p.avg(p.TotalCalls) }

// SiteWeight returns the averaged invocation count of a call site — the
// arc weight used by the inline expander.
func (p *Profile) SiteWeight(id int) float64 { return p.avg(p.SiteCounts[id]) }

// FuncWeight returns the averaged entry count of a function — the node
// weight used for linearization.
func (p *Profile) FuncWeight(name string) float64 { return p.avg(p.FuncCounts[name]) }

// SiteTargetWeight returns the averaged count of one resolved target at a
// pointer call site.
func (p *Profile) SiteTargetWeight(site int, target string) float64 {
	return p.avg(p.PtrTargets[site][target])
}

// DominantTarget returns the most-frequent resolved target of a pointer
// call site, its total count, and the site's total resolved count. Ties
// break toward the lexically smaller name so the answer is deterministic.
func (p *Profile) DominantTarget(site int) (target string, count, total int64) {
	for t, n := range p.PtrTargets[site] {
		total += n
		if n > count || (n == count && (target == "" || t < target)) {
			target, count = t, n
		}
	}
	return target, count, total
}

// String renders a compact summary.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile: %d run(s), avg IL=%.0f, avg CT=%.0f, avg calls=%.0f (extern %.0f, ptr %.0f)\n",
		p.Runs, p.AvgIL(), p.AvgControl(), p.AvgCalls(), p.avg(p.TotalExtern), p.avg(p.TotalPtr))
	if p.TotalTruncated > 0 {
		fmt.Fprintf(&sb, "  warning: %d of %d run(s) truncated (returns != calls; exit() before unwinding)\n",
			p.TotalTruncated, p.Runs)
	}
	names := make([]string, 0, len(p.FuncCounts))
	for n := range p.FuncCounts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.FuncCounts[names[i]] != p.FuncCounts[names[j]] {
			return p.FuncCounts[names[i]] > p.FuncCounts[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-24s %12.1f\n", n, p.FuncWeight(n))
	}
	return sb.String()
}
