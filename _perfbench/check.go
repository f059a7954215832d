package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"x3/internal/agg"
	"x3/internal/cube"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/serve"
)

// oracleRow is one expected answer row.
type oracleRow struct {
	vals  []string
	value float64
	n     int64
}

// oracle answers wire-level requests from cube.RunOracle over the facts
// a store serves, decoded to strings so it is independent of any store's
// dictionary interning order.
type oracle struct {
	lat  *lattice.Lattice
	rows map[uint32][]oracleRow // per cuboid, sorted by values
	// post[pid][i][v] lists the rows of pid whose i-th live value is v.
	post map[uint32][]map[string][]int32
	memo map[string][]oracleRow
	digs map[string]answerDigest
}

func newOracle(lat *lattice.Lattice, src cube.Source, dicts []*match.Dict) (*oracle, error) {
	res, err := cube.RunOracle(lat, src, dicts)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{lat: lat, rows: map[uint32][]oracleRow{}, post: map[uint32][]map[string][]int32{}, memo: map[string][]oracleRow{}, digs: map[string]answerDigest{}}
	for _, p := range lat.Points() {
		pid := lat.ID(p)
		live := lat.LiveAxes(p)
		var rows []oracleRow
		for _, key := range res.Keys(p) {
			st, _ := res.State(p, key)
			vals := make([]string, len(key))
			for i, id := range key {
				vals[i] = dicts[live[i]].Value(id)
			}
			rows = append(rows, oracleRow{vals: vals, value: st.Final(lat.Query.Agg), n: st.N})
		}
		sort.Slice(rows, func(i, j int) bool { return lessVals(rows[i].vals, rows[j].vals) })
		post := make([]map[string][]int32, len(live))
		for i := range post {
			post[i] = map[string][]int32{}
		}
		for r, row := range rows {
			for i, v := range row.vals {
				post[i][v] = append(post[i][v], int32(r))
			}
		}
		o.rows[pid] = rows
		o.post[pid] = post
	}
	return o, nil
}

func lessVals(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// point resolves a request's cuboid the way the serving layer does:
// named axes take the named state, omitted axes their most relaxed one.
func (o *oracle) point(req serve.Request) (lattice.Point, error) {
	p := o.lat.Bottom()
	for a, lad := range o.lat.Ladders {
		want, ok := req.Cuboid[lad.Spec.Var]
		if !ok {
			continue
		}
		found := false
		for si, st := range lad.States {
			if strings.EqualFold(st.Label, want) {
				p[a], found = uint8(si), true
			}
		}
		if !found {
			return nil, fmt.Errorf("axis %s has no state %q", lad.Spec.Var, want)
		}
	}
	return p, nil
}

// expect returns the rows a correct answer to req holds, sorted by
// values.
func (o *oracle) expect(req serve.Request) ([]oracleRow, error) {
	key := requestKey(req)
	if rows, ok := o.memo[key]; ok {
		return rows, nil
	}
	p, err := o.point(req)
	if err != nil {
		return nil, err
	}
	pid := o.lat.ID(p)
	live := o.lat.LiveAxes(p)
	pos := map[string]int{}
	for i, a := range live {
		pos[o.lat.Ladders[a].Spec.Var] = i
	}
	type pin struct {
		i int
		v string
	}
	var pins []pin
	for v, val := range req.Where {
		i, ok := pos[v]
		if !ok {
			return nil, fmt.Errorf("constraint on %s, not live at the cuboid", v)
		}
		pins = append(pins, pin{i, val})
	}
	all := o.rows[pid]
	var out []oracleRow
	if len(pins) == 0 {
		out = all
	} else {
		// Scan the shortest posting list and filter by every pin.
		best := pins[0]
		for _, pn := range pins[1:] {
			if len(o.post[pid][pn.i][pn.v]) < len(o.post[pid][best.i][best.v]) {
				best = pn
			}
		}
		out = []oracleRow{}
	rows:
		for _, r := range o.post[pid][best.i][best.v] {
			row := all[r]
			for _, pn := range pins {
				if row.vals[pn.i] != pn.v {
					continue rows
				}
			}
			out = append(out, row)
		}
	}
	o.memo[key] = out
	return out, nil
}

// expectDigest returns the digest of the rows a correct answer to req
// holds.
func (o *oracle) expectDigest(req serve.Request) (answerDigest, error) {
	key := requestKey(req)
	if d, ok := o.digs[key]; ok {
		return d, nil
	}
	rows, err := o.expect(req)
	if err != nil {
		return answerDigest{}, err
	}
	var d answerDigest
	for _, r := range rows {
		d.add(r.vals, r.value, r.n)
	}
	o.digs[key] = d
	return d, nil
}

// answerDigest is an order-independent digest of an answer: its row
// count and a sum of per-row hashes over the values, the value and the
// count. Two answers agree on it exactly when they hold the same rows,
// barring a 64-bit hash collision. serve_read keeps digests rather than
// answers, so its largest answers do not stay live for the whole run.
type answerDigest struct {
	rows int
	sum  uint64
}

func (d *answerDigest) add(vals []string, value float64, n int64) {
	h := uint64(14695981039346656037) // FNV-1a
	b := func(x byte) { h = (h ^ uint64(x)) * 1099511628211 }
	for _, v := range vals {
		for i := 0; i < len(v); i++ {
			b(v[i])
		}
		b(0x1f)
	}
	for _, w := range []uint64{math.Float64bits(value), uint64(n)} {
		for i := 0; i < 64; i += 8 {
			b(byte(w >> i))
		}
	}
	h ^= h >> 33 // finalize, so the sum mixes every bit
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	d.rows++
	d.sum += h
}

func digestResponse(r *serve.Response) answerDigest {
	var d answerDigest
	for _, row := range r.Rows {
		d.add(row.Values, row.Value, row.Count)
	}
	return d
}

// compareAnswer checks an answer against the expected rows: same rows,
// and per row the same values, value and count. Row order is not part of
// the contract (single stores order by value id, coordinators by value).
func compareAnswer(want []oracleRow, got *serve.Response) error {
	if got == nil {
		return fmt.Errorf("no answer")
	}
	if got.Partial || got.Degraded {
		return fmt.Errorf("answer is partial=%v degraded=%v", got.Partial, got.Degraded)
	}
	if len(got.Rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want))
	}
	rows := append([]serve.ResponseRow(nil), got.Rows...)
	sort.Slice(rows, func(i, j int) bool { return lessVals(rows[i].Values, rows[j].Values) })
	for i, w := range want {
		g := rows[i]
		if strings.Join(g.Values, "\x1f") != strings.Join(w.vals, "\x1f") || g.Value != w.value || g.Count != w.n {
			return fmt.Errorf("row %d is %v value=%v count=%d, want %v value=%v count=%d",
				i, g.Values, g.Value, g.Count, w.vals, w.value, w.n)
		}
	}
	return nil
}

// fingerprint is an order-independent digest of a cube: the cell count
// and a sum of per-cell hashes. Every algorithm emits each (cuboid,
// group) cell exactly once, so two runs agree on the fingerprint exactly
// when they emit the same cells with the same aggregate states.
type fingerprint struct {
	cells int64
	sum   uint64
}

// fpSink computes a fingerprint as the cells arrive; the parallel
// algorithms may deliver from several workers.
type fpSink struct {
	mu sync.Mutex
	fp fingerprint
}

func (s *fpSink) Cell(point uint32, key []match.ValueID, st agg.State) error {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
		h ^= h >> 29
	}
	mix(uint64(point))
	for _, k := range key {
		mix(uint64(k))
	}
	mix(uint64(st.N))
	mix(uint64(int64(st.Sum * 1024)))
	s.mu.Lock()
	s.fp.cells++
	s.fp.sum += h
	s.mu.Unlock()
	return nil
}
