// Command x3perf is the repository's benchmark: one driver that runs a
// named workload built from a seed, checks every output for correctness,
// and prints every metric by name with its unit.
//
//	bash _perfbench/run.sh --workload serve_read --seed 7 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - cube_build: the paper's operator. One round evaluates the match
//     phase and runs every algorithm the paper plots over a fig4-shaped
//     Treebank input and a fig10-shaped DBLP input.
//   - serve_read: the full read stack. Open-loop HTTP queries reach a
//     2-shard x 2-replica coordinator behind servehttp and admission.
//   - serve_ingest: appends beside reads, in-process, on one delta-ladder
//     store with a small cache and a running compactor.
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// measured with tracing off. With --trace 1 it carries the per-layer
// metrics, computed from spans the benchmark records around its calls
// into each layer; that run also writes a CPU and a heap profile. Every
// run writes a full report (metadata, parameters, counter deltas, base
// counts) under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	tmp      string
}

// report is what a workload hands back: its metrics, its operation
// counts, and every correctness problem it found.
type report struct {
	e2e       metrics
	layer     metrics
	attempted int64
	failed    int64
	problems  []string
	params    map[string]any
	counters  map[string]int64
}

func newReport() *report {
	return &report{e2e: metrics{}, layer: metrics{}, params: map[string]any{}}
}

// setParams records workload parameters in the run's report.
func (r *report) setParams(kv map[string]any) {
	for k, v := range kv {
		r.params[k] = v
	}
}

// problemf records a correctness violation; any one makes the run
// incorrect.
func (r *report) problemf(format string, args ...any) {
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 50 {
		r.problems = append(r.problems, "further problems elided")
	}
}

var workloads = map[string]func(config) (*report, error){
	"cube_build":   runCubeBuild,
	"serve_read":   runServeRead,
	"serve_ingest": runServeIngest,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: cube_build, serve_read or serve_ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for reports, profiles and temporary stores")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "x3perf: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	tmp, err := os.MkdirTemp(mustMkdir(filepath.Join(cfg.out, "tmp")), cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	started := time.Now()
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	names, want := endToEnd, rep.e2e
	if cfg.trace {
		names, want = perLayer, rep.layer
	}
	out := runResult{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range names {
		m, ok := want[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s measured %s as %v", cfg.workload, d.name, m.Value)
		}
		out.Metrics[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "x3perf: check failed: %s\n", p)
	}
	if err := writeReport(cfg, rep, out, time.Since(started)); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runResult is the final stdout line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeReport stores everything about the run — metadata, parameters,
// both metric sets, counter deltas and problems — as JSON under
// cfg.out/results.
func writeReport(cfg config, rep *report, res runResult, wall time.Duration) error {
	t := 0
	if cfg.trace {
		t = 1
	}
	doc := map[string]any{
		"meta": map[string]any{
			"workload":       cfg.workload,
			"seed":           cfg.seed,
			"seconds":        cfg.seconds,
			"trace":          cfg.trace,
			"git_revision":   envOr("X3PERF_GIT_REV", "unknown"),
			"go_version":     runtime.Version(),
			"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
			"nproc":          runtime.NumCPU(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"wall_s":         wall.Seconds(),
			"finished_utc":   time.Now().UTC().Format(time.RFC3339),
			"metric_version": 1,
		},
		"params":     rep.params,
		"result":     res,
		"end_to_end": rep.e2e,
		"per_layer":  rep.layer,
		"counters":   rep.counters,
		"problems":   rep.problems,
	}
	dir := mustMkdir(filepath.Join(cfg.out, "results"))
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, t))
	fmt.Fprintf(os.Stderr, "x3perf: report written to %s\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "x3perf: %v\n", err)
		os.Exit(1)
	}
	return dir
}

// profiler writes one CPU profile over the measured phase and one heap
// profile at its end, for traced runs.
type profiler struct {
	cpu  *os.File
	base string
}

// startProfile begins CPU profiling when the run is traced; the returned
// profiler's stop is safe to call either way.
func startProfile(cfg config) (*profiler, error) {
	if !cfg.trace {
		return &profiler{}, nil
	}
	dir := mustMkdir(filepath.Join(cfg.out, "profiles"))
	p := &profiler{base: filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))}
	f, err := os.Create(p.base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

func (p *profiler) stop() error {
	if p.cpu == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	p.cpu = nil
	f, err := os.Create(p.base + ".heap.pprof")
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
