package main

import "fmt"

// metricDef names one metric, its unit and which direction is better.
// README.md documents each one; BENCHMARK.json at the repository root
// lists the end-to-end metrics and the per-layer metrics whose result
// field is set.
type metricDef struct {
	name, unit, better string
	// result marks a per-layer metric printed in the --trace 1 result
	// line. The others are exercised by only some workloads and are
	// printed in the detail table alone.
	result bool
}

// endToEndDefs are the metrics every workload reports with tracing off.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "compile_s", unit: "s", better: "lower"},
	{name: "eval_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "code_growth_pct", unit: "%", better: "lower"},
	{name: "calls_removed_pct", unit: "%", better: "higher"},
	{name: "dyn_il_ratio", unit: "ratio", better: "lower"},
}

// perLayerDefs are the metrics of the traced run.
var perLayerDefs = []metricDef{
	{"frontend.parse_s", "s", "lower", true},
	{"frontend.sema_s", "s", "lower", true},
	{"frontend.irgen_s", "s", "lower", true},
	{"frontend.src_lines", "count", "lower", true},
	{"frontend.static_il", "count", "lower", true},
	{"opt.preinline_s", "s", "lower", true},
	{"opt.static_il_removed", "count", "higher", true},
	{"predict.synthesize_s", "s", "lower", false},
	{"predict.sites", "count", "lower", true},
	{"callgraph.build_s", "s", "lower", true},
	{"callgraph.arcs", "count", "lower", true},
	{"inline.expand_s", "s", "lower", true},
	{"inline.expansions", "count", "higher", true},
	{"inline.partial", "count", "higher", true},
	{"inline.devirt", "count", "higher", true},
	{"inline.cache_hit_ratio", "ratio", "higher", true},
	{"ir.verify_s", "s", "lower", true},
	{"interp.translate_s", "s", "lower", true},
	{"interp.run_s", "s", "lower", true},
	{"interp.run_wall_s", "s", "lower", true},
	{"interp.runs", "count", "lower", true},
	{"interp.dyn_il", "count", "lower", true},
	{"interp.mil_per_s", "MIL/s", "higher", true},
	{"interp.allocs_per_run", "count", "lower", true},
	{"interp.faults", "count", "lower", true},
	{"profdb.post_ms", "ms", "lower", false},
	{"profdb.post_p95_ms", "ms", "lower", false},
	{"profdb.fetch_ms", "ms", "lower", false},
	{"profdb.fetch_p95_ms", "ms", "lower", false},
	{"profdb.requests", "count", "higher", true},
	{"profdb.retries", "count", "lower", true},
	{"profdb.resolve_s", "s", "lower", false},
	{"profdb.exact_site_ratio", "ratio", "higher", false},
	{"fleet.router.ingest_ms", "ms", "lower", false},
	{"fleet.router.read_ms", "ms", "lower", false},
	{"fleet.node.ingest_ms", "ms", "lower", false},
	{"fleet.node.read_ms", "ms", "lower", false},
	{"fleet.node.requests", "count", "higher", true},
	{"fleet.router.status_5xx", "count", "lower", true},
	{"trace.overhead_pct", "%", "lower", true},
}

func defByName(name string) metricDef {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d
			}
		}
	}
	panic(fmt.Sprintf("perfbench: undefined metric %q", name))
}

// add reports an end-to-end metric.
func (r *report) add(name string, value float64, samples int) {
	d := defByName(name)
	r.endToEnd = append(r.endToEnd, metric{metricDef: d, value: value, samples: samples})
}

// addLayer reports a per-layer metric.
func (r *report) addLayer(d metricDef, value float64, samples int) {
	r.perLayer = append(r.perLayer, metric{metricDef: d, value: value, samples: samples})
}

// fillUntouched reports 0 for every result-line count of a layer the
// workload never calls, so every workload's traced result carries the
// same metric names.
func (r *report) fillUntouched() {
	have := map[string]bool{}
	for _, m := range r.perLayer {
		have[m.name] = true
	}
	for _, d := range perLayerDefs {
		if d.result && !have[d.name] {
			if d.unit != "count" {
				panic(fmt.Sprintf("perfbench: %s workload did not measure %s", r.workload, d.name))
			}
			r.addLayer(d, 0, 0)
		}
	}
}
