package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
	"x3/internal/xmltree"
)

// Parameters of serve_ingest.
const (
	// ingestRate is the constant offered rate: about 30% of the measured
	// closed-loop capacity of one ladder store under this mix (100-115
	// ops/s on 2 cores). At 50 ops/s, about half, queueing behind the
	// large roll-ups and compactions doubled the tail's spread between
	// runs and made it follow any loss of host CPU.
	ingestRate = 30.0
	// ingestFlushCells makes deltas form every few appends.
	ingestFlushCells = 2000
	// ingestCompactAfter lets deltas climb to 8 before a compaction.
	ingestCompactAfter = 8
	// ingestCacheBytes is about a third of the base store's 1.6 MB of
	// data at 20,000 articles, so most block reads miss (hit ratio about
	// 0.14).
	ingestCacheBytes = 512 << 10
	// probeQueries is the size of the post-run probe set, on top of one
	// unconstrained read of every cuboid.
	probeQueries = 300
)

// ingestStack is the serve_ingest system: one delta-ladder store with its
// background compactor.
type ingestStack struct {
	reg         *obs.Registry
	set         *match.Set
	store       *serve.Store
	dir         string
	stopCompact context.CancelFunc
	compactDone chan struct{}
}

func buildIngestStack(in *dblpInput, dir string) (*ingestStack, error) {
	st := &ingestStack{reg: obs.New(), dir: dir}
	set, err := in.evaluate()
	if err != nil {
		return nil, err
	}
	st.set = set
	st.store, err = serve.BuildDir(dir, in.lat, cloneSet(set), serve.Options{
		Props:        in.props,
		CacheBytes:   ingestCacheBytes,
		FlushCells:   ingestFlushCells,
		CompactAfter: ingestCompactAfter,
		Registry:     st.reg,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.stopCompact = cancel
	st.compactDone = make(chan struct{})
	go func() {
		defer close(st.compactDone)
		st.store.CompactLoop(ctx)
	}()
	return st, nil
}

func (st *ingestStack) close() {
	st.stopCompact()
	<-st.compactDone
	st.store.Close()
}

// quiesce folds every outstanding delta into the base so the on-disk
// layout no longer depends on timing.
func (st *ingestStack) quiesce(ctx context.Context) error {
	if err := st.store.Flush(ctx); err != nil {
		return err
	}
	return st.store.Compact(ctx)
}

// ingestExec runs one operation in-process: queries as AnswerCells plus
// Finalize (what Store.ServeRequest does), appends as Store.Append.
func (st *ingestStack) exec(tr *tracer) executor {
	lat := st.store.Lattice()
	return func(ctx context.Context, o *op) outcome {
		var root *open
		if o.traced {
			ctx = tr.withRequest(ctx)
			deltas, _ := st.store.Generations()
			ctx, root = startSpan(ctx, "client")
			defer func() { root.end(true, strconv.Itoa(deltas)) }()
		}
		if o.kind == opAppend {
			actx, sp := startSpan(ctx, "serve.append")
			_, err := st.store.Append(actx, o.body)
			sp.end(err == nil, "")
			return outcome{ok: err == nil, why: errText(err), body: o.body, bytes: len(o.body)}
		}
		actx, sp := startSpan(ctx, "serve.answer_cells")
		ca, err := st.store.AnswerCells(actx, o.req)
		sp.end(err == nil, "")
		if err != nil {
			return outcome{why: err.Error(), req: &o.req}
		}
		_, fsp := startSpan(ctx, "serve.finalize")
		resp := ca.Finalize(lat.Query.Agg)
		fsp.end(true, "")
		out := outcome{req: &o.req, ok: !resp.Degraded}
		if resp.Degraded {
			out.why = "degraded answer"
		}
		return out
	}
}

func runServeIngest(cfg config) (*report, error) {
	rep := newReport()
	in, err := newDBLPInput(serveArticles, serveCorpusSeed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()

	var setups, cubeTimes []float64
	var st *ingestStack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC() // each set-up starts from a settled heap
		t0 := time.Now()
		st, err = buildIngestStack(in, filepath.Join(cfg.tmp, fmt.Sprintf("ingest%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cubeTimes = append(cubeTimes, spanSeconds(st.reg, "cube.counter"))
	}
	defer st.close()

	baseDataBytes := st.store.DataBytes()
	queries := newDBLPQueries(st.set, serveCorpusSeed)
	gen := newGenerator(cfg.seed, queries, ingestMix)
	exec := st.exec(tr)
	ctx := context.Background()

	// The open loop gets most of the run: its latency quantiles need the
	// samples, while one store's closed-loop throughput settles quickly.
	openDur, capDur := phaseSplit(cfg, 0.25)
	warm := time.Duration(warmSeconds * float64(time.Second))
	ops := gen.schedule(ingestRate, warm, openDur)
	if cfg.trace {
		markTraced(ops, warm, openDur)
	}
	before := st.reg.Snapshot()
	prof, err := startProfile(cfg)
	if err != nil {
		return nil, err
	}
	rt := startRT()
	outs, openWall := openLoop(ctx, ops, exec)
	rtd := rt.stop()
	if err := prof.stop(); err != nil {
		return nil, err
	}
	after := st.reg.Snapshot()
	spans := tr.snapshot()

	// Store size after the open loop quiesces.
	if err := st.quiesce(ctx); err != nil {
		return nil, err
	}
	facts := st.store.NumFacts()
	bytesPerFact := float64(storeBytes(st.dir)) / float64(facts)

	var capOuts []outcome
	var capWall time.Duration
	if !cfg.trace {
		capOuts, capWall = closedLoop(ctx, runtime.NumCPU(), capDur, gen.pool(4096), exec)
		if err := st.quiesce(ctx); err != nil {
			return nil, err
		}
	}

	// Operations fail on any error or degraded answer; the answers are
	// checked against the oracle once the store is quiet.
	for _, group := range [][]outcome{outs, capOuts} {
		for _, o := range group {
			if o.warm {
				continue
			}
			rep.attempted++
			if !o.ok {
				rep.failed++
				rep.problemf("%s failed: %s", o.kind, o.why)
			}
		}
	}
	if err := probeIngest(ctx, rep, in, st, cfg.seed, append(outs, capOuts...)); err != nil {
		return nil, err
	}

	rep.setParams(map[string]any{
		"articles": serveArticles, "base_facts": st.set.NumFacts(), "facts_after_open_loop": facts,
		"rate_ops_s": ingestRate, "flush_cells": ingestFlushCells, "compact_after": ingestCompactAfter,
		"cache_bytes": ingestCacheBytes, "append_articles": 20, "open_loop_s": openDur.Seconds(),
		"warmup_s": warmSeconds, "capacity_s": capDur.Seconds(), "capacity_clients": runtime.NumCPU(),
		"setup_reps": setupReps, "mix": fmt.Sprintf("%+v", ingestMix), "zipf_s": zipfS, "zipf_v": zipfV,
		"runtime": rtd, "capacity_ops": len(capOuts), "probe_queries": probeQueries,
		"base_data_bytes": baseDataBytes,
	})
	rep.counters = counterDeltas(before, after)

	measured := recorded(outs)
	fillServeE2E(rep, measured, openWall, capOuts, capWall, rtd)
	rep.e2e.set("setup_s", median(setups), "s")
	rep.e2e.set("cube_s", median(cubeTimes), "s")
	rep.e2e.set("store_bytes_per_fact", bytesPerFact, "B")

	if cfg.trace {
		fillCommonLayer(rep, measured, rtd)
		fillServeLayer(rep, before, after, spans)
		fillIngestLayer(rep, before, after, spans, measured)
	}
	return rep, mustPositive(rep.e2e, "setup_s", "query_p50_ms")
}

// fillIngestLayer sets the append, maintenance, ladder and WAL metrics.
func fillIngestLayer(rep *report, before, after obs.Snapshot, spans []span, measured []outcome) {
	d := func(k string) float64 { return float64(after.Counters[k] - before.Counters[k]) }
	app := latencies(measured, func(o outcome) bool { return o.kind == opAppend && !o.traced })
	rep.layer.set("bench.append_p50_ms", median(app), "ms")
	rep.layer.set("bench.append_p99_ms", quantile(app, 0.99), "ms")
	spanApp := durations(spans, "serve.append", func(s span) bool { return s.ok })
	rep.layer.set("serve.appends", d("serve.appends"), "count")
	rep.layer.set("serve.append_p50_ms", median(spanApp), "ms")
	rep.layer.set("serve.append_p99_ms", quantile(spanApp, 0.99), "ms")
	rep.layer.set("serve.flush_runs", d("serve.flush.runs"), "count")
	rep.layer.set("serve.compact_runs", d("compact.runs"), "count")
	merge := after.Timers["compact.merge"].TotalNS - before.Timers["compact.merge"].TotalNS
	rep.layer.set("serve.compact_merge_s", float64(merge)/1e9, "s")
	var deltas []float64
	for _, s := range spans {
		if s.name == "client" {
			if n, err := strconv.Atoi(s.attr); err == nil {
				deltas = append(deltas, float64(n))
			}
		}
	}
	var sum float64
	for _, x := range deltas {
		sum += x
	}
	rep.layer.set("serve.deltas_mean", ratio(sum, float64(len(deltas))), "count")
	var payload float64
	for _, o := range measured {
		if o.kind == opAppend && o.ok {
			payload += float64(o.bytes)
		}
	}
	rep.layer.set("wal.appends", d("wal.appends"), "count")
	rep.layer.set("wal.payload_bytes", payload, "B")
	rep.layer.set("wal.bytes_per_append_byte", ratio(d("wal.append.bytes"), payload), "B/B")
}

// probeIngest replays a fixed probe set against an oracle over the base
// facts plus every document the store accepted: one unconstrained read
// of every cuboid, then probeQueries queries drawn from the read mix.
// Each probe counts as an attempted operation, and a wrong answer as a
// failed one.
func probeIngest(ctx context.Context, rep *report, in *dblpInput, st *ingestStack, seed int64, outs []outcome) error {
	dicts := make([]*match.Dict, in.lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	all, err := match.EvaluateWith(in.doc, in.lat, dicts)
	if err != nil {
		return err
	}
	for _, o := range outs {
		if o.kind != opAppend || !o.ok {
			continue
		}
		doc, err := xmltree.Parse(bytes.NewReader(o.body))
		if err != nil {
			return err
		}
		delta, err := match.EvaluateWith(doc, in.lat, dicts)
		if err != nil {
			return err
		}
		all.Facts = append(all.Facts, delta.Facts...)
	}
	if got := st.store.NumFacts(); got != len(all.Facts) {
		rep.problemf("store holds %d facts, want %d (base plus accepted appends)", got, len(all.Facts))
	}
	orc, err := newOracle(in.lat, all, dicts)
	if err != nil {
		return err
	}
	var probes []serve.Request
	for _, p := range in.lat.Points() {
		req := serve.Request{Cuboid: map[string]string{}}
		for a, lad := range in.lat.Ladders {
			req.Cuboid[lad.Spec.Var] = lad.States[p[a]].Label
		}
		probes = append(probes, req)
	}
	pg := newGenerator(seed^0x7e57, newDBLPQueries(st.set, serveCorpusSeed), readMix)
	for i := 0; i < probeQueries; i++ {
		probes = append(probes, pg.next().req)
	}
	for _, req := range probes {
		resp, err := st.store.ServeRequest(ctx, req)
		if err == nil {
			var want []oracleRow
			if want, err = orc.expect(req); err == nil {
				err = compareAnswer(want, resp)
			}
		}
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.problemf("probe %s: %v", requestKey(req), err)
		}
	}
	rep.params["probes"] = len(probes)
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
