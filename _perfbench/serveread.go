package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"x3/internal/admit"
	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/schema"
	"x3/internal/serve"
	"x3/internal/servehttp"
	"x3/internal/shard"
	"x3/internal/xmltree"
)

// Parameters of the serving workloads.
const (
	serveArticles = 20_000
	readShards    = 2
	readReplicas  = 2
	// readRate is the constant offered rate of serve_read: about a
	// quarter of the closed-loop capacity of the HTTP-fronted 2x2
	// coordinator under this mix (150-190 ops/s on 2 cores). At 75
	// ops/s, about half, queueing behind the large roll-ups set the
	// median: its spread over five seeds was 0.54 of itself, and the
	// p99's 0.32.
	readRate = 40.0
	// readTenantRate is each tenant's quota; it sits far above the
	// offered rate so any refusal is a regression.
	readTenantRate = 2000.0
	readCacheBytes = 64 << 20 // per replica: the whole store fits
	setupReps      = 5
	// serveCorpusSeed seeds the serving workloads' base corpus and its
	// hot-key ranking. Both stay fixed across --seed: corpora drawn per
	// seed moved the COUNTER build, the hot keys' cost and the cache hit
	// ratio by more than the bounds allow. The seed varies what reaches
	// the store: the schedule, the hot-key draws, the tenants and the
	// appended documents.
	serveCorpusSeed = 1
	warmSeconds     = 1.0
	traceHeader     = "X-Perf-Trace"
)

// dblpInput is the generated DBLP corpus and its query.
type dblpInput struct {
	doc   *xmltree.Document
	lat   *lattice.Lattice
	props cube.Props
}

func newDBLPInput(articles int, seed int64) (*dblpInput, error) {
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		return nil, err
	}
	d, err := schema.Parse(dataset.DBLPDTD)
	if err != nil {
		return nil, err
	}
	props, err := schema.Infer(d, lat)
	if err != nil {
		return nil, err
	}
	return &dblpInput{doc: dataset.DBLP(dataset.DefaultDBLPConfig(articles, seed)), lat: lat, props: props}, nil
}

// evaluate runs the match phase over the corpus with fresh dictionaries.
func (in *dblpInput) evaluate() (*match.Set, error) {
	dicts := make([]*match.Dict, in.lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	return match.EvaluateWith(in.doc, in.lat, dicts)
}

// cloneSet gives a store private dictionaries: stores intern appended
// values, so two stores must never share them.
func cloneSet(s *match.Set) *match.Set {
	dicts := make([]*match.Dict, len(s.Dicts))
	for i, d := range s.Dicts {
		nd := match.NewDict()
		for _, v := range d.Values() {
			nd.ID(v)
		}
		dicts[i] = nd
	}
	return &match.Set{Lattice: s.Lattice, Dicts: dicts, Facts: append([]*match.Fact(nil), s.Facts...)}
}

// readStack is the serve_read system: 2x2 replica stores behind a
// coordinator, the HTTP edge with admission, and a loopback listener.
type readStack struct {
	reg    *obs.Registry
	set    *match.Set
	stores []*serve.Store
	coord  *shard.Coordinator
	srv    *http.Server
	served chan error
	url    string
	dir    string
}

// buildReadStack is serve_read's set-up: match, partition, build every
// replica store, assemble the coordinator and the edge, and listen.
func buildReadStack(in *dblpInput, dir string, tr *tracer) (*readStack, error) {
	st := &readStack{reg: obs.New(), dir: dir}
	set, err := in.evaluate()
	if err != nil {
		return nil, err
	}
	st.set = set
	opt := serve.Options{Props: in.props, CacheBytes: readCacheBytes, Registry: st.reg}
	var groups [][]shard.Replica
	for si, part := range shard.Partition(set, readShards) {
		var group []shard.Replica
		for ri := 0; ri < readReplicas; ri++ {
			s, err := serve.BuildDir(filepath.Join(dir, fmt.Sprintf("s%d", si), fmt.Sprintf("r%d", ri)), in.lat, cloneSet(part), opt)
			if err != nil {
				st.close()
				return nil, err
			}
			st.stores = append(st.stores, s)
			label := fmt.Sprintf("s%d/r%d", si, ri)
			group = append(group, &tracedReplica{Replica: shard.NewStoreReplica(label, s), store: s, shard: si})
		}
		groups = append(groups, group)
	}
	st.coord, err = shard.NewWithReplicas(in.lat, groups, shard.Options{Registry: st.reg})
	if err != nil {
		st.close()
		return nil, err
	}
	ctrl := admit.New(admit.Config{MaxInFlight: 64, Rate: readTenantRate, Burst: readTenantRate, Registry: st.reg})
	h := servehttp.New(tracedBackend{Backend: st.coord}, st.reg, servehttp.Options{Admission: ctrl, RequestTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: traceHeaders(tr, h), ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// close stops the server, waits for it, and closes every store.
func (st *readStack) close() {
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st.srv.Shutdown(ctx)
		cancel()
		<-st.served
	}
	if st.coord != nil {
		st.coord.Close()
	} else {
		for _, s := range st.stores {
			s.Close()
		}
	}
	os.RemoveAll(st.dir)
}

// storeBytes is the on-disk size of every file under dir.
func storeBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// tracedBackend records a span around the coordinator's ServeRequest,
// the boundary below the HTTP edge.
type tracedBackend struct{ servehttp.Backend }

func (b tracedBackend) ServeRequest(ctx context.Context, req serve.Request) (*serve.Response, error) {
	ctx, sp := startSpan(ctx, "servehttp.backend")
	resp, err := b.Backend.ServeRequest(ctx, req)
	sp.end(err == nil, "")
	return resp, err
}

// tracedReplica decorates a store replica with one span per attempt —
// hedge losers included — and a child span around the store's
// AnswerCells, the same call the plain replica makes.
type tracedReplica struct {
	shard.Replica
	store *serve.Store
	shard int
}

func (r *tracedReplica) Query(ctx context.Context, req serve.Request) (*serve.CellAnswer, error) {
	ctx, leg := startSpan(ctx, "shard.replica")
	if leg == nil {
		return r.Replica.Query(ctx, req)
	}
	actx, sp := startSpan(ctx, "serve.answer_cells")
	ca, err := r.store.AnswerCells(actx, req)
	sp.end(err == nil, "")
	leg.end(err == nil, strconv.Itoa(r.shard))
	return ca, err
}

// traceHeaders carries a traced request's id and client span across the
// HTTP boundary into the handler's context.
func traceHeaders(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(traceHeader); h != "" && tr != nil {
			var req, parent int64
			if _, err := fmt.Sscanf(h, "%d.%d", &req, &parent); err == nil {
				r = r.WithContext(tr.withParent(r.Context(), req, parent))
			}
		}
		next.ServeHTTP(w, r)
	})
}

// httpClient drives the edge over loopback with at most nproc
// connections.
func httpClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// httpQuery issues one query over HTTP and decodes the answer; traced
// queries record a client span covering the round trip.
func httpQuery(ctx context.Context, client *http.Client, url string, tr *tracer, o *op) outcome {
	body, err := json.Marshal(o.req)
	if err != nil {
		return outcome{why: err.Error()}
	}
	var sp *open
	if o.traced {
		ctx = tr.withRequest(ctx)
		ctx, sp = startSpan(ctx, "client")
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return outcome{why: err.Error()}
	}
	hreq.Header.Set(servehttp.TenantHeader, o.tenant)
	if sp != nil {
		sc := ctx.Value(spanKey{}).(spanCtx)
		hreq.Header.Set(traceHeader, fmt.Sprintf("%d.%d", sc.req, sp.id()))
	}
	resp, err := client.Do(hreq)
	if err != nil {
		sp.end(false, "")
		return outcome{why: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end(err == nil && resp.StatusCode == http.StatusOK, "")
	if err != nil {
		return outcome{why: err.Error()}
	}
	out := outcome{bytes: len(data), req: &o.req}
	if resp.StatusCode != http.StatusOK {
		out.why = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return out
	}
	var r serve.Response
	if err := json.Unmarshal(data, &r); err != nil {
		out.why = err.Error()
		return out
	}
	out.end = time.Now()
	out.dig = digestResponse(&r)
	out.ok = !r.Partial && !r.Degraded
	if !out.ok {
		out.why = "partial or degraded answer"
	}
	return out
}

func runServeRead(cfg config) (*report, error) {
	rep := newReport()
	in, err := newDBLPInput(serveArticles, serveCorpusSeed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()

	// Set-up, several times; the last stack serves the run.
	var setups []float64
	var cubeTimes []float64
	var st *readStack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC() // each set-up starts from a settled heap
		t0 := time.Now()
		st, err = buildReadStack(in, filepath.Join(cfg.tmp, fmt.Sprintf("read%d", i)), tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cubeTimes = append(cubeTimes, spanSeconds(st.reg, "cube.counter"))
	}
	defer st.close()

	queries := newDBLPQueries(st.set, serveCorpusSeed)
	gen := newGenerator(cfg.seed, queries, readMix)

	// Prime every replica's block cache with a full read of every
	// cuboid, so the measured phases see no cache misses.
	ctx := context.Background()
	for _, s := range st.stores {
		for _, p := range in.lat.Points() {
			req := serve.Request{Cuboid: map[string]string{}}
			for a, lad := range in.lat.Ladders {
				req.Cuboid[lad.Spec.Var] = lad.States[p[a]].Label
			}
			if _, err := s.AnswerCells(ctx, req); err != nil {
				return nil, fmt.Errorf("priming: %w", err)
			}
		}
	}

	client := httpClient()
	defer client.CloseIdleConnections()
	exec := func(ctx context.Context, o *op) outcome { return httpQuery(ctx, client, st.url, tr, o) }

	openDur, capDur := phaseSplit(cfg, 0.3)
	warm := time.Duration(warmSeconds * float64(time.Second))
	ops := gen.schedule(readRate, warm, openDur)
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

	var capOuts []outcome
	var capWall time.Duration
	if !cfg.trace {
		capOuts, capWall = closedLoop(ctx, runtime.NumCPU(), capDur, gen.pool(4096), exec)
	}

	// Every answered request must equal the oracle's answer.
	orc, err := newOracle(in.lat, st.set, st.set.Dicts)
	if err != nil {
		return nil, err
	}
	checkAnswers(rep, orc, outs)
	checkAnswers(rep, orc, capOuts)

	rep.setParams(map[string]any{
		"articles": serveArticles, "facts": st.set.NumFacts(), "shards": readShards, "replicas": readReplicas,
		"rate_ops_s": readRate, "tenants": tenants, "tenant_quota_ops_s": readTenantRate,
		"cache_bytes_per_replica": readCacheBytes, "open_loop_s": openDur.Seconds(), "warmup_s": warmSeconds,
		"capacity_s": capDur.Seconds(), "capacity_clients": runtime.NumCPU(), "setup_reps": setupReps,
		"mix": fmt.Sprintf("%+v", readMix), "zipf_s": zipfS, "zipf_v": zipfV, "runtime": rtd,
		"capacity_ops": len(capOuts),
	})
	rep.counters = counterDeltas(before, after)

	measured := recorded(outs)
	fillServeE2E(rep, measured, openWall, capOuts, capWall, rtd)
	rep.e2e.set("setup_s", median(setups), "s")
	rep.e2e.set("cube_s", median(cubeTimes), "s")
	rep.e2e.set("store_bytes_per_fact", float64(storeBytes(st.dir))/float64(st.set.NumFacts()), "B")

	if cfg.trace {
		fillCommonLayer(rep, measured, rtd)
		fillServeLayer(rep, before, after, spans)
		fillEdgeLayer(rep, before, after, spans, measured)
	}
	return rep, mustPositive(rep.e2e, "setup_s", "query_p50_ms")
}

// phaseSplit divides a run's measured seconds between the open loop and
// the closed-loop capacity phase, which takes capShare of them; traced
// runs measure only the open loop.
func phaseSplit(cfg config, capShare float64) (open, capacity time.Duration) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return total, 0
	}
	capacity = time.Duration(capShare * float64(total))
	return total - capacity, capacity
}

// recorded drops warm-up outcomes.
func recorded(outs []outcome) []outcome {
	var r []outcome
	for _, o := range outs {
		if !o.warm {
			r = append(r, o)
		}
	}
	return r
}

// checkAnswers counts attempts and failures and compares the digest of
// every answered query with the oracle's.
func checkAnswers(rep *report, orc *oracle, outs []outcome) {
	for _, o := range outs {
		if o.warm {
			continue
		}
		rep.attempted++
		if !o.ok {
			// The quota sits above the offered rate, so a refusal or a
			// deadline is as much a regression as an error.
			rep.failed++
			rep.problemf("%s query failed: %s", o.kind, o.why)
			continue
		}
		want, err := orc.expectDigest(*o.req)
		if err == nil && o.dig != want {
			err = fmt.Errorf("%d rows, digest %x; want %d rows, digest %x", o.dig.rows, o.dig.sum, want.rows, want.sum)
		}
		if err != nil {
			rep.failed++
			rep.problemf("wrong answer to %s: %v", requestKey(*o.req), err)
		}
	}
}

// fillServeE2E sets the end-to-end metrics both serving workloads share.
func fillServeE2E(rep *report, measured []outcome, openWall time.Duration, capOuts []outcome, capWall time.Duration, rtd rtDelta) {
	q := latencies(measured, func(o outcome) bool { return isQuery(o) && !o.traced })
	rep.e2e.set("query_p50_ms", median(q), "ms")
	rep.e2e.set("query_p99_ms", quantile(q, 0.99), "ms")
	ok := 0
	for _, o := range measured {
		if o.ok {
			ok++
		}
	}
	rep.e2e.set("goodput_ops_s", ratio(float64(ok), openWall.Seconds()), "1/s")
	capOK := 0
	for _, o := range capOuts {
		if o.ok {
			capOK++
		}
	}
	if capWall > 0 {
		rep.e2e.set("capacity_ops_s", float64(capOK)/capWall.Seconds(), "1/s")
	}
	rep.e2e.set("alloc_kb_per_op", ratio(float64(rtd.AllocBytes)/1024, float64(len(measured))), "KB")
	rep.e2e.set("heap_peak_mb", rtd.HeapPeakMB, "MB")
	rep.params["query_samples"] = len(q)

	// The schedule is only honest if the generator kept to it. Scheduler
	// hiccups delay single sends by a few ms; a generator that fell
	// behind delays most of them, or some by far more.
	var lags []float64
	for _, o := range measured {
		lags = append(lags, ms(o.lag))
	}
	p50, p99 := median(lags), quantile(lags, 0.99)
	rep.params["gen_lag_p50_ms"], rep.params["gen_lag_p99_ms"] = p50, p99
	if p50 > maxGenLagP50MS || p99 > maxGenLagP99MS {
		rep.problemf("generator fell behind: send lag p50 %.1f ms, p99 %.1f ms (limits %d and %d ms); the run is invalid",
			p50, p99, maxGenLagP50MS, maxGenLagP99MS)
	}
}

// Generator send-lag limits beyond which an open-loop run no longer
// offered its nominal schedule.
const (
	maxGenLagP50MS = 10
	maxGenLagP99MS = 200
)

// fillCommonLayer sets the generator and runtime metrics every traced
// run reports.
func fillCommonLayer(rep *report, measured []outcome, rtd rtDelta) {
	var lags []float64
	for _, o := range measured {
		lags = append(lags, ms(o.lag))
	}
	rep.layer.set("bench.gen_lag_p99_ms", quantile(lags, 0.99), "ms")
	rep.layer.set("bench.ops_sent", float64(len(measured)), "count")
	rep.layer.set("bench.fail_share", ratio(float64(rep.failed), float64(rep.attempted)), "share")
	plain := median(latencies(measured, func(o outcome) bool { return isQuery(o) && !o.traced }))
	traced := median(latencies(measured, func(o outcome) bool { return isQuery(o) && o.traced }))
	rep.layer.set("bench.trace_overhead_share", ratio(traced-plain, plain), "share")
	rep.layer.set("runtime.gc_cpu_share", rtd.GCCPUShare, "share")
	rep.layer.set("runtime.gc_cycles", float64(rtd.GCCycles), "count")
}

// fillServeLayer sets the store-level metrics from spans and counter
// deltas.
func fillServeLayer(rep *report, before, after obs.Snapshot, spans []span) {
	d := func(k string) float64 { return float64(after.Counters[k] - before.Counters[k]) }
	okSpan := func(s span) bool { return s.ok }
	answers := durations(spans, "serve.answer_cells", okSpan)
	rep.layer.set("serve.answer_p50_ms", median(answers), "ms")
	rep.layer.set("serve.answer_p99_ms", quantile(answers, 0.99), "ms")
	rep.layer.set("serve.finalize_p50_ms", median(durations(spans, "serve.finalize", nil)), "ms")
	queries := d("serve.queries")
	rep.layer.set("serve.queries", queries, "count")
	rep.layer.set("serve.rows", d("serve.rows"), "count")
	rep.layer.set("serve.scan_cells_per_row", ratio(d("serve.scan.cells"), d("serve.rows")), "count")
	for _, plan := range []string{"direct", "rollup", "base"} {
		rep.layer.set("serve.plan_"+plan+"_share", ratio(d("serve.plan."+plan), queries), "share")
	}
	hits, misses := d("serve.cache.hits"), d("serve.cache.misses")
	rep.layer.set("cellfile.cache_lookups", hits+misses, "count")
	rep.layer.set("cellfile.cache_hit_ratio", ratio(hits, hits+misses), "share")
	rep.layer.set("cellfile.cache_mb", float64(after.Gauges["serve.cache.bytes"])/(1<<20), "MB")
	rep.layer.set("cellfile.read_retries", d("cellfile.read.retries"), "count")
}

// fillEdgeLayer sets the HTTP edge, admission and shard metrics of
// serve_read from its spans.
func fillEdgeLayer(rep *report, before, after obs.Snapshot, spans []span, measured []outcome) {
	d := func(k string) float64 { return float64(after.Counters[k] - before.Counters[k]) }
	edge := selfTimes(spans, "client", nil)
	rep.layer.set("servehttp.self_p50_ms", median(edge), "ms")
	rep.layer.set("servehttp.self_p99_ms", quantile(edge, 0.99), "ms")
	var respBytes, nq float64
	for _, o := range measured {
		if isQuery(o) && o.ok {
			respBytes += float64(o.bytes)
			nq++
		}
	}
	rep.layer.set("servehttp.resp_kb_per_query", ratio(respBytes/1024, nq), "KB")
	rep.layer.set("servehttp.requests", d("serve.http.requests"), "count")
	rep.layer.set("admit.admitted", d("admit.admitted"), "count")
	rep.layer.set("admit.saturated", d("admit.saturated"), "count")
	rep.layer.set("admit.over_quota", d("admit.over_quota"), "count")

	// A shard leg's winner is its earliest-ending successful attempt.
	winners := map[int64]bool{}
	type legKey struct {
		parent int64
		shard  string
	}
	best := map[legKey]span{}
	for _, s := range spans {
		if s.name != "shard.replica" || !s.ok {
			continue
		}
		k := legKey{s.parent, s.attr}
		if b, ok := best[k]; !ok || s.end < b.end {
			best[k] = s
		}
	}
	var legs []float64
	for _, s := range best {
		winners[s.id] = true
		legs = append(legs, ms(s.dur()))
	}
	coord := selfTimes(spans, "servehttp.backend", func(s span) bool { return winners[s.id] })
	rep.layer.set("shard.self_p50_ms", median(coord), "ms")
	rep.layer.set("shard.self_p99_ms", quantile(coord, 0.99), "ms")
	rep.layer.set("shard.replica_p50_ms", median(legs), "ms")
	rep.layer.set("shard.replica_p99_ms", quantile(legs, 0.99), "ms")
	backends := count(spans, "servehttp.backend")
	rep.layer.set("shard.traced_queries", float64(backends), "count")
	rep.layer.set("shard.attempts_per_query", ratio(float64(count(spans, "shard.replica")), float64(backends)), "count")
	fired := d("shard.hedge.fired")
	rep.layer.set("shard.hedge_fired", fired, "count")
	rep.layer.set("shard.hedge_won_share", ratio(d("shard.hedge.won"), fired), "share")
}

// counterDeltas returns after-before for every counter that moved.
func counterDeltas(before, after obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after.Counters {
		if dv := v - before.Counters[k]; dv != 0 {
			out[k] = dv
		}
	}
	return out
}

// spanSeconds sums the durations of the registry's spans named name.
func spanSeconds(reg *obs.Registry, name string) float64 {
	var total int64
	for _, s := range reg.Snapshot().Spans {
		if s.Name == name {
			total += s.DurationNS
		}
	}
	return float64(total) / 1e9
}
