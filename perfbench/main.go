// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time from a single process, checks every
// output, and prints its metrics; the last line of standard output is
// the result as one JSON object:
//
//	go run . --workload paper-measured --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-measured, synth-predicted, fleet-mixed. With
// --trace 0 the result carries the end-to-end metrics, measured with
// tracing off; with --trace 1 it carries the per-layer metrics from
// traced rounds, which alternate with untraced ones so the tracing
// overhead can be reported. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number.
type metric struct {
	metricDef
	value   float64
	samples int
}

// report is one workload run's outcome.
type report struct {
	workload           string
	attempted, failed  int
	problems           []string // determinism or invariant violations
	endToEnd, perLayer []metric
	detail             []string // extra human-readable lines
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-measured, synth-predicted or fleet-mixed")
	seed := fs.Int64("seed", 1, "workload seed: program order, program choice, fingerprints and request mix")
	seconds := fs.Float64("seconds", 10, "how long to measure; whole rounds run until it has passed")
	trace := fs.Int("trace", 0, "1 runs traced rounds beside untraced ones and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	switch *workload {
	case "paper-measured":
		rep, err = runCompileWorkload(*workload, func() ([]*job, error) { return paperJobs(*seed) }, paperSetups, d, *trace == 1)
	case "synth-predicted":
		rep, err = runCompileWorkload(*workload, func() ([]*job, error) { return synthJobs(*seed) }, synthSetups, d, *trace == 1)
	case "fleet-mixed":
		rep, err = runFleetWorkload(*seed, d, *trace == 1)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper-measured, synth-predicted or fleet-mixed)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.add("peak_rss_mb", peakRSSMB(), 1)
	if *trace == 1 {
		rep.fillUntouched()
	}

	printDetail(stdout, rep)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *workload, p)
	}
	correct := rep.failed == 0 && len(rep.problems) == 0
	out := rep.endToEnd
	if *trace == 1 {
		out = nil
		for _, m := range rep.perLayer {
			if m.result {
				out = append(out, m)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out))
	for _, m := range out {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// printDetail writes the human-readable report: every metric with its
// unit, direction and sample count, then the detail rows.
func printDetail(w io.Writer, rep *report) {
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, failed_frac %g\n", rep.workload, rep.attempted, rep.failed, frac)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tmetric\tvalue\tunit\tbetter\tsamples")
	for _, m := range rep.endToEnd {
		fmt.Fprintf(tw, "end_to_end\t%s\t%.6g\t%s\t%s\t%d\n", m.name, m.value, m.unit, m.better, m.samples)
	}
	for _, m := range rep.perLayer {
		kind := "per_layer"
		if !m.result {
			kind = "detail"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\t%d\n", kind, m.name, m.value, m.unit, m.better, m.samples)
	}
	tw.Flush()
	for _, line := range rep.detail {
		fmt.Fprintln(w, line)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// median of the values (the mean of the middle two for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile picks the q-quantile (0..1) of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}
