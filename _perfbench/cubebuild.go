package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/harness"
	"x3/internal/match"
	"x3/internal/matchfile"
	"x3/internal/mem"
	"x3/internal/pattern"
	"x3/internal/xmltree"
)

// cubeSpec fixes one cube_build input: the paper figure it is shaped
// like, its axis count and the harness scale giving its tree count.
type cubeSpec struct {
	figure string
	axes   int
	scale  float64 // fig4: 10^4 trees x 0.5; fig10: 220k articles x 0.1
}

// Pacing of cube_build.
const (
	// minCubeRounds is the fewest measured rounds a cube_build run makes.
	minCubeRounds = 3
	// cubeCyclePeriod paces an untraced run: cycle k starts at k periods
	// with one round by the one caller, then fills the rest of the
	// period with closed-loop capacity passes. A round takes about 4 s
	// on 2 cores and a pass about 2.5 s, so a cycle holds a round and two
	// passes with room to spare. Interleaved, the rounds and the passes
	// both span the whole run: the host's speed shifts over tens of
	// seconds, so a phase confined to one part of the run moves between
	// runs by more than the bounds allow.
	cubeCyclePeriod = 10 * time.Second
	// cubeRoundPeriod paces a traced run, which has no capacity passes:
	// round k starts at k periods.
	cubeRoundPeriod = 5 * time.Second
)

var cubeSpecs = map[string]cubeSpec{
	"fig4":  {figure: "fig4", axes: 5, scale: 0.5},
	"fig10": {figure: "fig10", axes: 4, scale: 0.1},
}

// cubeInput is one prepared input: the harness workload (match file,
// lattice, schema properties, budget), the corpus the match phase is
// re-timed on, the oracle's fingerprint and the algorithms that must
// reproduce it exactly.
type cubeInput struct {
	name   string
	algs   []string
	w      *harness.Workload
	doc    *xmltree.Document
	oracle fingerprint
	exact  map[string]bool
	seen   map[string]fingerprint // first fingerprint of inexact algorithms
}

// prepareCubeInputs is cube_build's set-up: harness.Prepare generates,
// matches and materializes each input.
func prepareCubeInputs(seed int64, tmp string) ([]*cubeInput, error) {
	var ins []*cubeInput
	for _, ci := range cubeInputs {
		spec := cubeSpecs[ci.name]
		fc, err := harness.FigureByID(spec.figure)
		if err != nil {
			return nil, err
		}
		w, err := harness.Prepare(fc, harness.Options{Scale: spec.scale, Seed: seed, TmpDir: tmp}, spec.axes)
		if err != nil {
			return nil, err
		}
		ins = append(ins, &cubeInput{name: ci.name, algs: ci.algs, w: w})
	}
	return ins, nil
}

// corpus regenerates the document harness.Prepare matched, so each round
// can time the match phase on it.
func (in *cubeInput) corpus(seed int64) (*xmltree.Document, error) {
	spec := cubeSpecs[in.name]
	fc, err := harness.FigureByID(spec.figure)
	if err != nil {
		return nil, err
	}
	trees := int(float64(fc.Trees) * spec.scale)
	if fc.DBLP {
		return dataset.DBLP(dataset.DefaultDBLPConfig(trees, seed)), nil
	}
	// The harness's sparse fig4 Treebank: 64 values per axis, a quarter
	// of facts missing each axis, a fifth nested below a wrapper.
	axes := make([]dataset.AxisConfig, spec.axes)
	for i := range axes {
		axes[i] = dataset.AxisConfig{
			Tag:         fmt.Sprintf("w%d", i),
			Cardinality: 64,
			PMissing:    0.25,
			PNest:       0.2,
			Relax:       pattern.RelaxSet(0).With(pattern.LND).With(pattern.PCAD),
		}
	}
	return dataset.Treebank(dataset.TreebankConfig{Seed: seed, Facts: trees, Axes: axes}), nil
}

// match runs the match phase once, with fresh dictionaries.
func (in *cubeInput) match() (*match.Set, error) {
	dicts := make([]*match.Dict, in.w.Lattice.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	return match.EvaluateWith(in.doc, in.w.Lattice, dicts)
}

// run executes one algorithm over the input's match file, the way the
// harness does (fresh reader, the figure's scaled budget), into a
// fingerprinting sink.
func (in *cubeInput) run(name string) (cube.Stats, fingerprint, time.Duration, error) {
	sink := &fpSink{}
	st, d, err := in.runInto(name, sink)
	return st, sink.fp, d, err
}

// runInto is run with the cells going to sink.
func (in *cubeInput) runInto(name string, sink cube.Sink) (cube.Stats, time.Duration, error) {
	alg, err := cube.ByName(name)
	if err != nil {
		return cube.Stats{}, 0, err
	}
	src, err := matchfile.Open(in.w.MatchPath)
	if err != nil {
		return cube.Stats{}, 0, err
	}
	t0 := time.Now()
	st, err := alg.Run(&cube.Input{
		Lattice: in.w.Lattice,
		Source:  src,
		Dicts:   src.Dicts(),
		Budget:  mem.New(in.w.Budget),
		TmpDir:  os.TempDir(),
		Props:   in.w.Props,
		Workers: runtime.NumCPU(),
	}, sink)
	return st, time.Since(t0), err
}

// setOracle fingerprints the oracle's cube and decides, from the
// properties measured on the data, which algorithms are specified to be
// exact on this input (§4.3: an algorithm assuming a property the data
// violates may differ).
func (in *cubeInput) setOracle() error {
	src, err := matchfile.Open(in.w.MatchPath)
	if err != nil {
		return err
	}
	sink := &fpSink{}
	if _, err := (cube.Oracle{}).Run(&cube.Input{Lattice: in.w.Lattice, Source: src, Dicts: src.Dicts()}, sink); err != nil {
		return err
	}
	in.oracle = sink.fp
	mp, err := cube.MeasureProps(in.w.Lattice, src)
	if err != nil {
		return err
	}
	in.exact = map[string]bool{}
	in.seen = map[string]fingerprint{}
	for _, name := range in.algs {
		alg, err := cube.ByName(name)
		if err != nil {
			return err
		}
		req := alg.Requires()
		in.exact[name] = (!req.Disjointness || mp.GloballyDisjoint()) && (!req.Coverage || mp.GloballyCovered())
	}
	return nil
}

// check compares one run's cube with the oracle where the algorithm is
// specified to be exact, and otherwise with its own first run.
func (in *cubeInput) check(rep *report, name string, fp fingerprint) bool {
	if in.exact[name] {
		if fp != in.oracle {
			rep.problemf("%s on %s: %d cells, digest %x; oracle %d cells, digest %x",
				name, in.name, fp.cells, fp.sum, in.oracle.cells, in.oracle.sum)
			return false
		}
		return true
	}
	first, ok := in.seen[name]
	if !ok {
		in.seen[name] = fp
		return true
	}
	if fp != first {
		rep.problemf("%s on %s is not deterministic: %d cells then %d", name, in.name, first.cells, fp.cells)
		return false
	}
	return true
}

// cubeRun is one algorithm run.
type cubeRun struct {
	dur   time.Duration
	stats cube.Stats
	ok    bool
}

// cubeRound is one closed-loop round: both match phases, then every
// algorithm on both inputs.
type cubeRound struct {
	wall   time.Duration
	runs   []cubeRun
	traced bool
}

func runRound(ctx context.Context, rep *report, ins []*cubeInput, traced bool, tr *tracer) cubeRound {
	r := cubeRound{traced: traced}
	var root *open
	if traced {
		ctx = tr.withRequest(ctx)
		ctx, root = startSpan(ctx, "round")
	}
	t0 := time.Now()
	for _, in := range ins {
		_, sp := startSpan(ctx, "match."+in.name)
		set, err := in.match()
		sp.end(err == nil, "")
		if err != nil {
			rep.problemf("match on %s: %v", in.name, err)
		} else if set.NumFacts() != in.w.Facts {
			rep.problemf("match on %s: %d facts, harness matched %d", in.name, set.NumFacts(), in.w.Facts)
		}
	}
	for _, in := range ins {
		for _, name := range in.algs {
			_, sp := startSpan(ctx, "cube."+name+"."+in.name)
			st, fp, d, err := in.run(name)
			sp.end(err == nil, "")
			ok := err == nil
			if err != nil {
				rep.problemf("%s on %s: %v", name, in.name, err)
			} else {
				ok = in.check(rep, name, fp)
			}
			r.runs = append(r.runs, cubeRun{dur: d, stats: st, ok: ok})
		}
	}
	r.wall = time.Since(t0)
	root.end(true, "")
	return r
}

func runCubeBuild(cfg config) (*report, error) {
	rep := newReport()
	tr := newTracer()
	if err := os.Setenv("TMPDIR", cfg.tmp); err != nil {
		return nil, err
	}

	var setups []float64
	var ins []*cubeInput
	for i := 0; i < setupReps; i++ {
		for _, in := range ins {
			in.w.Remove()
		}
		runtime.GC() // each set-up starts from a settled heap
		t0 := time.Now()
		var err error
		ins, err = prepareCubeInputs(cfg.seed, cfg.tmp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		for _, in := range ins {
			in.w.Remove()
		}
	}()
	var fileBytes, facts float64
	for _, in := range ins {
		doc, err := in.corpus(cfg.seed)
		if err != nil {
			return nil, err
		}
		in.doc = doc
		if err := in.setOracle(); err != nil {
			return nil, err
		}
		if fi, err := os.Stat(in.w.MatchPath); err == nil {
			fileBytes += float64(fi.Size())
		}
		facts += float64(in.w.Facts)
	}

	// One warm-up round, checked but not timed, then paced measured
	// rounds. goodput reads the successful runs at the pace while the
	// caller keeps it, and drops with every failure and every overrun.
	// Unpaced, it would be the inverse of the mean round, which host
	// load moves by more than goodput's bound.
	ctx := context.Background()
	warm := runRound(ctx, rep, ins, false, tr)
	period := cubeCyclePeriod
	if cfg.trace {
		period = cubeRoundPeriod
	}
	nRounds := max(minCubeRounds, int(cfg.seconds*float64(time.Second)/float64(period)))
	order := longestFirst(ins, warm)
	longest := warm.wall // a bound on a pass until one has run
	prof, err := startProfile(cfg)
	if err != nil {
		return nil, err
	}
	rt := startRT()
	start := time.Now()
	var rounds []cubeRound
	var lagMS, passRates []float64
	var capRuns int
	var wall time.Duration
	for i := 0; i < nRounds; i++ {
		// Every round and every pass starts from a collected heap, so
		// the passes before a round do not set the GC pace it runs at
		// (startRT has just collected before the first).
		if i > 0 {
			runtime.GC()
		}
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lagMS = append(lagMS, ms(time.Since(due)))
		rounds = append(rounds, runRound(ctx, rep, ins, cfg.trace && i%2 == 1, tr))
		wall = time.Since(start)
		if cfg.trace {
			continue
		}
		// Capacity: whole passes of every algorithm on every input, as
		// many as fit before the next round is due.
		next := due.Add(period)
		for len(passRates) == 0 || time.Until(next) >= longest {
			runtime.GC()
			n, d := cubeCapacity(rep, order)
			capRuns += n
			if len(passRates) == 0 {
				longest = d
			} else {
				longest = max(longest, d)
			}
			passRates = append(passRates, float64(n)/d.Seconds())
		}
	}
	rtd := rt.stop()
	if err := prof.stop(); err != nil {
		return nil, err
	}

	var lat, roundS []float64
	okRuns := 0
	for _, r := range rounds {
		roundS = append(roundS, r.wall.Seconds())
		for _, run := range r.runs {
			rep.attempted++
			if !run.ok {
				rep.failed++
				continue
			}
			okRuns++
			if !r.traced {
				lat = append(lat, ms(run.dur))
			}
		}
	}
	rep.e2e.set("setup_s", median(setups), "s")
	rep.e2e.set("query_p50_ms", median(lat), "ms")
	rep.e2e.set("query_p99_ms", quantile(lat, 0.99), "ms")
	rep.e2e.set("goodput_ops_s", float64(okRuns)/wall.Seconds(), "1/s")
	if len(passRates) > 0 {
		// The rate the callers sustained through every pass, as a rate
		// search finds the highest rate kept up with throughout. The
		// host's fast stretches lift single passes by up to half, so
		// the median pass moved with how much of a run they covered.
		rep.e2e.set("capacity_ops_s", slices.Min(passRates), "1/s")
	}
	rep.e2e.set("alloc_kb_per_op", ratio(float64(rtd.AllocBytes)/1024, float64(okRuns+capRuns)), "KB")
	rep.e2e.set("heap_peak_mb", rtd.HeapPeakMB, "MB")
	rep.e2e.set("store_bytes_per_fact", fileBytes/facts, "B")
	rep.e2e.set("cube_s", median(roundS), "s")

	exactOn := map[string][]string{}
	for _, in := range ins {
		for _, name := range in.algs {
			if in.exact[name] {
				exactOn[in.name] = append(exactOn[in.name], name)
			}
		}
	}
	rep.setParams(map[string]any{
		"inputs": map[string]any{
			"fig4":  map[string]any{"axes": 5, "trees": ins[0].w.Facts, "budget_bytes": ins[0].w.Budget},
			"fig10": map[string]any{"axes": 4, "articles": ins[1].w.Facts, "budget_bytes": ins[1].w.Budget},
		},
		"workers": runtime.NumCPU(), "rounds": len(rounds), "round_s": roundS, "setup_reps": setupReps,
		"exact_vs_oracle": exactOn, "runtime": rtd, "capacity_clients": runtime.NumCPU(),
		"capacity_runs": capRuns, "capacity_pass_rates": passRates, "query_samples": len(lat),
		"round_period_s": period.Seconds(), "round_lag_ms": lagMS,
	})
	if cfg.trace {
		fillCubeLayer(rep, rounds, tr.snapshot(), rtd)
		rep.layer.set("bench.gen_lag_p99_ms", quantile(lagMS, 0.99), "ms")
	}
	return rep, mustPositive(rep.e2e, "setup_s", "cube_s")
}

// fillCubeLayer sets the match, cube and extsort metrics from the traced
// rounds' spans and run statistics.
func fillCubeLayer(rep *report, rounds []cubeRound, spans []span, rtd rtDelta) {
	for _, ci := range cubeInputs {
		rep.layer.set("match."+ci.name+"_s", median(durations(spans, "match."+ci.name, nil))/1000, "s")
		for _, alg := range ci.algs {
			k := "cube." + alg + "." + ci.name
			rep.layer.set(k+"_s", median(durations(spans, k, nil))/1000, "s")
		}
	}
	var peak int64
	var passes, ext, spill []float64
	var plain, traced []float64
	for _, r := range rounds {
		var p, e, s float64
		for _, run := range r.runs {
			peak = max(peak, run.stats.PeakBytes)
			p += float64(run.stats.Passes)
			e += float64(run.stats.ExternalSorts)
			s += float64(run.stats.SpillBytes)
			if r.traced {
				traced = append(traced, ms(run.dur))
			} else {
				plain = append(plain, ms(run.dur))
			}
		}
		passes, ext, spill = append(passes, p), append(ext, e), append(spill, s/(1<<20))
	}
	rep.layer.set("cube.peak_mb", float64(peak)/(1<<20), "MB")
	rep.layer.set("cube.passes", median(passes), "count")
	rep.layer.set("extsort.sorts_external", median(ext), "count")
	rep.layer.set("extsort.spill_mb", median(spill), "MB")
	rep.layer.set("bench.ops_sent", float64(len(plain)+len(traced)), "count")
	rep.layer.set("bench.trace_overhead_share", ratio(median(traced)-median(plain), median(plain)), "share")
	rep.layer.set("bench.fail_share", ratio(float64(rep.failed), float64(rep.attempted)), "share")
	rep.layer.set("runtime.gc_cpu_share", rtd.GCCPUShare, "share")
	rep.layer.set("runtime.gc_cycles", float64(rtd.GCCycles), "count")
}

// cubePair is one algorithm on one input.
type cubePair struct {
	in   *cubeInput
	name string
}

// longestFirst lists every algorithm on every input by its warm-up run
// time, longest first, so a capacity pass that hands them out in this
// order ends with short runs and its callers finish close together.
func longestFirst(ins []*cubeInput, warm cubeRound) []cubePair {
	type timed struct {
		p cubePair
		d time.Duration
	}
	var ts []timed
	for _, in := range ins {
		for _, name := range in.algs {
			ts = append(ts, timed{cubePair{in, name}, warm.runs[len(ts)].dur})
		}
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].d > ts[j].d })
	pairs := make([]cubePair, len(ts))
	for i, t := range ts {
		pairs[i] = t.p
	}
	return pairs
}

// cubeCapacity runs one pass of the closed-loop capacity phase: nproc
// callers take the pairs in order from one shared queue until each has
// run once. It returns the successful runs and the pass's wall time.
func cubeCapacity(rep *report, pairs []cubePair) (int, time.Duration) {
	callers := runtime.NumCPU()
	var next atomic.Int64
	var mu sync.Mutex // check records first fingerprints of inexact algorithms
	ok := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pairs); i = int(next.Add(1) - 1) {
				p := pairs[i]
				_, fp, _, err := p.in.run(p.name)
				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.failed++
					rep.problemf("%s on %s: %v", p.name, p.in.name, err)
				} else if p.in.check(rep, p.name, fp) {
					ok++
				} else {
					rep.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ok, time.Since(start)
}
