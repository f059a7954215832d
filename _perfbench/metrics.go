package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// metricDef names one declared metric; the lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload on untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"goodput_ops_s", "1/s"},
	{"capacity_ops_s", "1/s"},
	{"alloc_kb_per_op", "KB"},
	{"heap_peak_mb", "MB"},
	{"store_bytes_per_fact", "B"},
	{"cube_s", "s"},
}

// cubeInputs are the two cube_build inputs and the algorithms each runs:
// the paper's curves for the figure, plus the two parallel algorithms.
var cubeInputs = []struct {
	name string
	algs []string
}{
	{"fig4", []string{"COUNTER", "BUC", "BUCOPT", "TD", "TDOPT", "BUCPAR", "TDPAR"}},
	{"fig10", []string{"COUNTER", "BUC", "BUCCUST", "BUCOPT", "TD", "TDCUST", "TDOPT", "TDOPTALL", "BUCPAR", "TDPAR"}},
}

// perLayer are the per-layer metrics, reported by every workload on
// traced runs (0 where the workload does not reach the layer).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.gen_lag_p99_ms", "ms"},
		{"bench.ops_sent", "count"},
		{"bench.trace_overhead_share", "share"},
		{"bench.fail_share", "share"},
		{"bench.append_p50_ms", "ms"},
		{"bench.append_p99_ms", "ms"},
		{"servehttp.self_p50_ms", "ms"},
		{"servehttp.self_p99_ms", "ms"},
		{"servehttp.resp_kb_per_query", "KB"},
		{"servehttp.requests", "count"},
		{"admit.admitted", "count"},
		{"admit.saturated", "count"},
		{"admit.over_quota", "count"},
		{"shard.self_p50_ms", "ms"},
		{"shard.self_p99_ms", "ms"},
		{"shard.traced_queries", "count"},
		{"shard.attempts_per_query", "count"},
		{"shard.replica_p50_ms", "ms"},
		{"shard.replica_p99_ms", "ms"},
		{"shard.hedge_fired", "count"},
		{"shard.hedge_won_share", "share"},
		{"serve.queries", "count"},
		{"serve.answer_p50_ms", "ms"},
		{"serve.answer_p99_ms", "ms"},
		{"serve.finalize_p50_ms", "ms"},
		{"serve.rows", "count"},
		{"serve.scan_cells_per_row", "count"},
		{"serve.plan_direct_share", "share"},
		{"serve.plan_rollup_share", "share"},
		{"serve.plan_base_share", "share"},
		{"serve.deltas_mean", "count"},
		{"serve.appends", "count"},
		{"serve.append_p50_ms", "ms"},
		{"serve.append_p99_ms", "ms"},
		{"serve.flush_runs", "count"},
		{"serve.compact_runs", "count"},
		{"serve.compact_merge_s", "s"},
		{"cellfile.cache_lookups", "count"},
		{"cellfile.cache_hit_ratio", "share"},
		{"cellfile.cache_mb", "MB"},
		{"cellfile.read_retries", "count"},
		{"wal.appends", "count"},
		{"wal.payload_bytes", "B"},
		{"wal.bytes_per_append_byte", "B/B"},
	}
	for _, in := range cubeInputs {
		defs = append(defs, metricDef{"match." + in.name + "_s", "s"})
	}
	for _, in := range cubeInputs {
		for _, alg := range in.algs {
			defs = append(defs, metricDef{"cube." + alg + "." + in.name + "_s", "s"})
		}
	}
	return append(defs,
		metricDef{"cube.peak_mb", "MB"},
		metricDef{"cube.passes", "count"},
		metricDef{"extsort.sorts_external", "count"},
		metricDef{"extsort.spill_mb", "MB"},
		metricDef{"runtime.gc_cpu_share", "share"},
		metricDef{"runtime.gc_cycles", "count"},
	)
}()

// quantile returns the q-quantile of xs by nearest rank (0 for no
// samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mustPositive fails a metric that a healthy run can never read as 0.
func mustPositive(m metrics, names ...string) error {
	for _, n := range names {
		if v, ok := m[n]; !ok || !(v.Value > 0) {
			return fmt.Errorf("metric %s measured %v; a valid run never reads 0", n, v.Value)
		}
	}
	return nil
}
