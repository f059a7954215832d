package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/serve"
)

// opKind is a workload operation class.
type opKind int

const (
	opPoint opKind = iota
	opSlice
	opRollup
	opAppend
)

func (k opKind) String() string {
	return [...]string{"point", "slice", "rollup", "append"}[k]
}

// op is one generated operation. The schedule is built up front from the
// seed; the program under test only ever sees req or body.
type op struct {
	due    time.Duration // offset from the phase start (open loop)
	kind   opKind
	tenant string
	req    serve.Request
	body   []byte
	warm   bool // warm-up: executed, not recorded
	traced bool
}

// outcome is one executed operation.
type outcome struct {
	kind   opKind
	lat    time.Duration // from the due time (open loop) or issue (closed loop)
	lag    time.Duration // how late the generator sent it
	ok     bool
	why    string // failure reason
	traced bool
	warm   bool
	end    time.Time    // when the answer was complete, if the executor knows
	dig    answerDigest // digest of the answer, for serve_read's check
	req    *serve.Request
	body   []byte // the appended document
	bytes  int    // response or append payload bytes
}

// mix gives how many operations of each kind one block of the schedule
// holds. Blocks are shuffled, so every run carries the mix's exact
// proportions in a seeded order (stratified, rather than independent,
// draws: run-to-run cost differences then come from the system, not from
// how many expensive operations a seed happened to draw).
type mix struct{ point, slice, rollup, append int }

func (m mix) block() []opKind {
	var ks []opKind
	for k, n := range []int{m.point, m.slice, m.rollup, m.append} {
		for i := 0; i < n; i++ {
			ks = append(ks, opKind(k))
		}
	}
	return ks
}

// readMix is the 60/30/10 point/slice/rollup query mix.
var readMix = mix{point: 6, slice: 3, rollup: 1}

// ingestMix keeps the query mix's proportions for 80% of operations and
// appends for the other 20%.
var ingestMix = mix{point: 12, slice: 6, rollup: 2, append: 5}

// bag deals its items in a fresh shuffled order each round.
type bag[T any] struct{ items, left []T }

func (b *bag[T]) draw(rng *rand.Rand) T {
	if len(b.left) == 0 {
		b.left = append(b.left[:0], b.items...)
		rng.Shuffle(len(b.left), func(i, j int) { b.left[i], b.left[j] = b.left[j], b.left[i] })
	}
	x := b.left[len(b.left)-1]
	b.left = b.left[:len(b.left)-1]
	return x
}

// tenants is the tenant population of the serving workloads.
const tenants = 4

// Hot keys follow a Zipf-Mandelbrot law over the facts: P(rank k) is
// proportional to (zipfV+k)^-zipfS. The offset keeps any single fact from
// dominating (the top 100 of 20,000 facts draw about 40% of the pins),
// so one seed's hottest keys do not set the run's cost alone.
const (
	zipfS = 1.2
	zipfV = 16
	// zipfStrata is how many equal-probability strata of the law one
	// round of draws covers.
	zipfStrata = 512
)

// zipfBag draws ranks from the Zipf-Mandelbrot law, stratified like the
// other bags: each round of zipfStrata draws takes one rank from each
// stratum, jittered within it, in shuffled order. Every run then pins
// hot keys in the law's proportions rather than in one seed's luck of
// the draw.
type zipfBag struct {
	cdf  []float64 // cdf[k] = P(rank <= k)
	left []int
}

func newZipfBag(n int) *zipfBag {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(zipfV+float64(k), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipfBag{cdf: cdf}
}

func (z *zipfBag) draw(rng *rand.Rand) int {
	if len(z.left) == 0 {
		for i := 0; i < zipfStrata; i++ {
			u := (float64(i) + rng.Float64()) / zipfStrata
			z.left = append(z.left, min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1))
		}
		rng.Shuffle(len(z.left), func(i, j int) { z.left[i], z.left[j] = z.left[j], z.left[i] })
	}
	k := z.left[len(z.left)-1]
	z.left = z.left[:len(z.left)-1]
	return k
}

// generator draws operations deterministically from one seed.
type generator struct {
	rng     *rand.Rand
	zipf    *zipfBag
	queries *dblpQueries
	kinds   bag[opKind]
	targets [opAppend]bag[target] // per query kind
	docSeed int64                 // append documents use seeds docSeed, docSeed+1, ...
	appends int
}

func newGenerator(seed int64, q *dblpQueries, m mix) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{
		rng:     rng,
		zipf:    newZipfBag(len(q.facts)),
		queries: q,
		kinds:   bag[opKind]{items: m.block()},
		docSeed: appendSeedBase(seed),
	}
	for _, p := range q.points {
		g.targets[opPoint].items = append(g.targets[opPoint].items, target{p, -1})
		g.targets[opRollup].items = append(g.targets[opRollup].items, target{p, -1})
	}
	g.targets[opSlice].items = q.slices
	return g
}

// appendSeedBase keeps append documents' seeds away from the base data's.
func appendSeedBase(seed int64) int64 { return (seed+1)*1_000_003 + 17 }

func (g *generator) next() op {
	o := op{kind: g.kinds.draw(g.rng), tenant: "tenant" + strconv.Itoa(g.rng.Intn(tenants))}
	if o.kind == opAppend {
		o.body = appendDoc(g.docSeed + int64(g.appends))
		g.appends++
	} else {
		o.req = g.queries.request(g.rng, g.zipf, o.kind, g.targets[o.kind].draw(g.rng))
	}
	return o
}

// schedule builds an open-loop schedule at a constant offered rate: a
// warm-up of warm seconds (executed, not recorded) followed by dur
// seconds of measured operations.
func (g *generator) schedule(rate float64, warm, dur time.Duration) []op {
	n := int((warm + dur).Seconds() * rate)
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o := g.next()
		o.due = time.Duration(float64(i) / rate * float64(time.Second))
		o.warm = o.due < warm
		ops = append(ops, o)
	}
	return ops
}

// pool draws n operations for a closed loop.
func (g *generator) pool(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// appendDoc renders one 20-article DBLP document.
func appendDoc(seed int64) []byte {
	var buf bytes.Buffer
	if err := dataset.DBLP(dataset.DefaultDBLPConfig(20, seed)).Write(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// markTraced alternates measured operations between untraced and traced
// in four equal segments, so both halves see the same warm state.
func markTraced(ops []op, warm, dur time.Duration) {
	for i := range ops {
		if ops[i].warm {
			continue
		}
		seg := int(4 * (ops[i].due - warm) / dur)
		ops[i].traced = seg%2 == 1
	}
}

// executor runs one operation and reports its outcome; lat and lag are
// filled in by the loop that drives it.
type executor func(ctx context.Context, o *op) outcome

// openLoop fires every operation at its due time whether or not earlier
// ones have completed, and times each from its due time. It returns the
// outcomes and the wall time from the first measured due time until the
// last operation completed.
func openLoop(ctx context.Context, ops []op, exec executor) ([]outcome, time.Duration) {
	outs := make([]outcome, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := exec(ctx, &ops[i])
			if o.end.IsZero() {
				o.end = time.Now()
			}
			o.lat = o.end.Sub(due)
			o.lag = lag
			o.kind, o.warm, o.traced = ops[i].kind, ops[i].warm, ops[i].traced
			outs[i] = o
		}(i)
	}
	wg.Wait()
	var first time.Time
	var last time.Time
	for i, o := range outs {
		if o.warm {
			continue
		}
		if first.IsZero() {
			first = start.Add(ops[i].due)
		}
		if end := start.Add(ops[i].due + o.lat); end.After(last) {
			last = end
		}
	}
	return outs, last.Sub(first)
}

// closedLoop runs clients callers, each issuing its next operation from
// ops as soon as the previous one completes, for dur. It returns the
// outcomes and the wall time until the last caller finished.
func closedLoop(ctx context.Context, clients int, dur time.Duration, ops []op, exec executor) ([]outcome, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(ops)
				t0 := time.Now()
				o := exec(ctx, &ops[i])
				if o.end.IsZero() {
					o.end = time.Now()
				}
				o.lat = o.end.Sub(t0)
				o.kind = ops[i].kind
				mine = append(mine, o)
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// latencies returns the latencies in ms of recorded outcomes that keep
// accepts.
func latencies(outs []outcome, keep func(outcome) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if !o.warm && keep(o) {
			xs = append(xs, ms(o.lat))
		}
	}
	return xs
}

func isQuery(o outcome) bool { return o.kind != opAppend }

// dblpQueries shapes the query mix over every cuboid of the DBLP lattice
// ($au author, $m month, $y year, $j journal; each rigid or deleted).
// Constraint values come from the base facts, ranked by a seeded
// permutation and drawn by Zipf rank, so hot keys exist and answers are
// rarely empty.
type dblpQueries struct {
	lat    *lattice.Lattice
	facts  [][][]string // facts[i][axis]: the fact's values at the rigid state
	points []lattice.Point
	slices []target // every live axis of every cuboid with at least two
}

// target is where a query goes: a cuboid and, for a slice, the live axis
// it groups by (-1 otherwise). Slices deal (cuboid, axis) pairs, because
// the axis sets a slice's cost as much as the cuboid does: grouped by
// author a slice holds hundreds of rows, pinned to one author a few.
type target struct {
	p    lattice.Point
	free int
}

func newDBLPQueries(set *match.Set, seed int64) *dblpQueries {
	lat := set.Lattice
	q := &dblpQueries{lat: lat, points: lat.Points()}
	for _, p := range q.points {
		if live := lat.LiveAxes(p); len(live) >= 2 {
			for _, a := range live {
				q.slices = append(q.slices, target{p, a})
			}
		}
	}
	q.facts = make([][][]string, len(set.Facts))
	for i, f := range set.Facts {
		vals := make([][]string, len(f.Axes))
		for a := range f.Axes {
			for _, id := range f.Values(a, 0) {
				vals[a] = append(vals[a], set.Dicts[a].Value(id))
			}
			sort.Strings(vals[a])
		}
		q.facts[i] = vals
	}
	rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
	rng.Shuffle(len(q.facts), func(i, j int) { q.facts[i], q.facts[j] = q.facts[j], q.facts[i] })
	return q
}

// request draws one query of kind at t.
func (q *dblpQueries) request(rng *rand.Rand, zipf *zipfBag, kind opKind, t target) serve.Request {
	p, free := t.p, t.free
	req := serve.Request{Cuboid: map[string]string{}}
	for a, lad := range q.lat.Ladders {
		req.Cuboid[lad.Spec.Var] = lad.States[p[a]].Label
	}
	if kind == opRollup {
		return req
	}
	live := q.lat.LiveAxes(p)
	// Pin values from one hot fact that has a value on every pinned axis.
	var fact [][]string
	for {
		fact = q.facts[zipf.draw(rng)]
		ok := true
		for _, a := range live {
			if a != free && len(fact[a]) == 0 {
				ok = false
				break
			}
		}
		if ok {
			break
		}
	}
	req.Where = map[string]string{}
	for _, a := range live {
		if a != free {
			req.Where[q.lat.Ladders[a].Spec.Var] = fact[a][rng.Intn(len(fact[a]))]
		}
	}
	return req
}

// requestKey renders a request canonically, for memoizing expectations.
func requestKey(r serve.Request) string {
	keys := func(m map[string]string) []string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	var b bytes.Buffer
	for _, k := range keys(r.Cuboid) {
		fmt.Fprintf(&b, "%s=%s;", k, r.Cuboid[k])
	}
	b.WriteByte('|')
	for _, k := range keys(r.Where) {
		fmt.Fprintf(&b, "%s=%s;", k, r.Where[k])
	}
	return b.String()
}
