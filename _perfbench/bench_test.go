package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"x3/internal/agg"
	"x3/internal/match"
	"x3/internal/serve"
)

// smallDBLP builds a small DBLP input, its fact set and its oracle.
func smallDBLP(t *testing.T, seed int64) (*dblpInput, *match.Set, *oracle) {
	t.Helper()
	in, err := newDBLPInput(400, seed)
	if err != nil {
		t.Fatal(err)
	}
	set, err := in.evaluate()
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(in.lat, set, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	return in, set, orc
}

func TestSameSeedSameSchedule(t *testing.T) {
	_, set, _ := smallDBLP(t, 5)
	build := func(seed int64) []op {
		return newGenerator(seed, newDBLPQueries(set, seed), ingestMix).schedule(50, 1e9, 4e9)
	}
	a, b := build(9), build(9)
	if len(a) != 250 {
		t.Fatalf("schedule has %d ops, want 250 at 50 ops/s over 5 s", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different schedules")
	}
	if reflect.DeepEqual(a, build(10)) {
		t.Fatal("different seeds produced the same schedule")
	}
	kinds := map[opKind]int{}
	for _, o := range a {
		kinds[o.kind]++
	}
	for _, k := range []opKind{opPoint, opSlice, opRollup, opAppend} {
		if kinds[k] == 0 {
			t.Errorf("no %s operations in the schedule", k)
		}
	}
}

// TestStoreAnswersMatchOracle runs the generated query mix against a real
// store, so the comparison the benchmark relies on is shown to accept
// correct answers.
func TestStoreAnswersMatchOracle(t *testing.T) {
	in, set, orc := smallDBLP(t, 6)
	st, err := serve.BuildDir(filepath.Join(t.TempDir(), "store"), in.lat, cloneSet(set), serve.Options{Props: in.props})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := newGenerator(6, newDBLPQueries(set, 6), readMix)
	nonEmpty := 0
	for i := 0; i < 200; i++ {
		req := g.next().req
		resp, err := st.ServeRequest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := orc.expect(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareAnswer(want, resp); err != nil {
			t.Fatalf("correct answer to %s rejected: %v", requestKey(req), err)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 150 {
		t.Errorf("only %d of 200 generated queries have a non-empty answer", nonEmpty)
	}
}

func TestCorruptedAnswerFailsCheck(t *testing.T) {
	in, set, orc := smallDBLP(t, 7)
	g := newGenerator(7, newDBLPQueries(set, 7), mix{slice: 1})
	var req serve.Request
	var want []oracleRow
	for len(want) < 2 {
		req = g.next().req
		var err error
		if want, err = orc.expect(req); err != nil {
			t.Fatal(err)
		}
	}
	good := func() *serve.Response {
		r := &serve.Response{Cuboid: "c", Plan: "direct"}
		for _, w := range want {
			r.Rows = append(r.Rows, serve.ResponseRow{Values: append([]string(nil), w.vals...), Value: w.value, Count: w.n})
		}
		return r
	}
	if err := compareAnswer(want, good()); err != nil {
		t.Fatalf("uncorrupted answer rejected: %v", err)
	}
	corruptions := map[string]func(*serve.Response){
		"count":   func(r *serve.Response) { r.Rows[1].Count++ },
		"value":   func(r *serve.Response) { r.Rows[0].Value += 1 },
		"group":   func(r *serve.Response) { r.Rows[0].Values[0] += "x" },
		"dropped": func(r *serve.Response) { r.Rows = r.Rows[1:] },
		"partial": func(r *serve.Response) { r.Partial = true },
		"degrade": func(r *serve.Response) { r.Degraded = true },
	}
	wantDig, err := orc.expectDigest(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestResponse(good()); got != wantDig {
		t.Fatalf("uncorrupted answer's digest %+v, want %+v", got, wantDig)
	}
	for name, corrupt := range corruptions {
		r := good()
		corrupt(r)
		if compareAnswer(want, r) == nil {
			t.Errorf("%s corruption passed the check", name)
		}
		if name != "partial" && name != "degrade" && digestResponse(r) == wantDig {
			t.Errorf("%s corruption left the digest unchanged", name)
		}
	}
	// Row order is not part of the answer.
	r := good()
	r.Rows[0], r.Rows[1] = r.Rows[1], r.Rows[0]
	if digestResponse(r) != wantDig {
		t.Error("reordering the rows changed the digest")
	}

	// The same holds end to end: checkAnswers marks one corrupted answer
	// among correct ones as a failed, incorrect operation.
	var outs []outcome
	for i := 0; i < 3; i++ {
		outs = append(outs, outcome{ok: true, req: &req, dig: digestResponse(good())})
	}
	bad := good()
	bad.Rows[0].Count += 2
	outs[1].dig = digestResponse(bad)
	rep := newReport()
	checkAnswers(rep, orc, outs)
	if rep.attempted != 3 || rep.failed != 1 || len(rep.problems) != 1 {
		t.Fatalf("attempted=%d failed=%d problems=%v; want 3, 1 and one problem", rep.attempted, rep.failed, rep.problems)
	}
	_ = in
}

// corruptingSink alters the aggregate of the n-th cell it forwards.
type corruptingSink struct {
	next *fpSink
	n, i int
}

func (s *corruptingSink) Cell(point uint32, key []match.ValueID, st agg.State) error {
	s.i++
	if s.i == s.n {
		st.N++
		st.Sum++
	}
	return s.next.Cell(point, key, st)
}

func TestCorruptedCubeFailsCheck(t *testing.T) {
	dir := t.TempDir()
	ins, err := prepareCubeInputs(3, dir)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[1] // fig10 (DBLP): small enough for a unit test
	defer ins[0].w.Remove()
	defer in.w.Remove()
	if err := in.setOracle(); err != nil {
		t.Fatal(err)
	}
	if !in.exact["COUNTER"] || in.exact["TDOPTALL"] {
		t.Fatalf("exactness on DBLP: COUNTER %v, TDOPTALL %v; want true, false", in.exact["COUNTER"], in.exact["TDOPTALL"])
	}
	_, fp, _, err := in.run("COUNTER")
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	if !in.check(rep, "COUNTER", fp) || len(rep.problems) != 0 {
		t.Fatalf("COUNTER's exact cube rejected: %v", rep.problems)
	}
	bad := &corruptingSink{next: &fpSink{}, n: 17}
	if _, _, err := in.runInto("COUNTER", bad); err != nil {
		t.Fatal(err)
	}
	if in.check(rep, "COUNTER", bad.next.fp) || len(rep.problems) != 1 {
		t.Fatalf("a cube with one corrupted cell passed the check (problems %v)", rep.problems)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, name: "client", start: 0, end: 100},
		{id: 2, parent: 1, name: "backend", start: 10, end: 50},
		{id: 3, parent: 1, name: "backend", start: 40, end: 70},
		{id: 4, parent: 1, name: "late", start: 90, end: 130},
	}
	got := selfTimes(spans, "client", nil)
	// Children cover [10,70] and [90,100]: 70 of 100 ns.
	if len(got) != 1 || got[0] != ms(30) {
		t.Fatalf("self time %v, want 30ns", got)
	}
	got = selfTimes(spans, "client", func(s span) bool { return s.name == "backend" })
	if got[0] != ms(40) {
		t.Fatalf("self time over backend children %v, want 40ns", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// driver prints in step with the benchmark's declaration.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	cmp := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Errorf("%s: driver has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := range want {
			if i < len(got) && (got[i].Name != want[i].name || got[i].Unit != want[i].unit) {
				t.Errorf("%s[%d]: driver %s (%s), BENCHMARK.json %s (%s)", kind, i, want[i].name, want[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	cmp("end_to_end", endToEnd, decl.EndToEnd)
	cmp("per_layer", perLayer, decl.PerLayer)
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the driver lacks", w.Name)
		}
	}
}

func TestWindowedPeak(t *testing.T) {
	// Windows {1,9} {2,3} {4,5} {6,7} {8,50}: peaks 9, 3, 5, 7, 50.
	xs := []uint64{1, 9, 2, 3, 4, 5, 6, 7, 8, 50}
	if got := windowedPeak(xs, 5); got != 7 {
		t.Fatalf("windowed peak %d, want 7", got)
	}
	if got := windowedPeak(xs[:3], 5); got != 9 {
		t.Fatalf("peak of too few samples %d, want their maximum 9", got)
	}
}

func TestLongestFirst(t *testing.T) {
	a := &cubeInput{name: "a", algs: []string{"X", "Y"}}
	b := &cubeInput{name: "b", algs: []string{"X"}}
	warm := cubeRound{runs: []cubeRun{{dur: 2}, {dur: 5}, {dur: 3}}}
	var got []string
	for _, p := range longestFirst([]*cubeInput{a, b}, warm) {
		got = append(got, p.name+"."+p.in.name)
	}
	if want := []string{"Y.a", "X.b", "X.a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("capacity order %v, want %v", got, want)
	}
}
