package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// request share req; parent names the span that caused this one.
type span struct {
	id, parent, req int64
	name            string
	start, end      int64 // ns since the tracer's epoch
	attr            string
	ok              bool
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// spanCtx is what a traced request carries in its context: the tracer,
// the request id, and the id of the innermost open span.
type spanCtx struct {
	t      *tracer
	req    int64
	parent int64
}

type spanKey struct{}

// withRequest starts a traced request on ctx.
func (t *tracer) withRequest(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{t: t, req: t.ids.Add(1)})
}

// withParent re-attaches a request id and parent span, e.g. after they
// crossed an HTTP boundary in headers.
func (t *tracer) withParent(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{t: t, req: req, parent: parent})
}

// open is an in-flight span; a nil *open is a no-op, which is what
// untraced requests get.
type open struct {
	sc spanCtx
	s  span
}

// startSpan opens a span named name under ctx's current span. Untraced
// contexts get the original ctx and a nil span.
func startSpan(ctx context.Context, name string) (context.Context, *open) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	if !ok {
		return ctx, nil
	}
	o := &open{sc: sc, s: span{id: sc.t.ids.Add(1), parent: sc.parent, req: sc.req, name: name, start: sc.t.now()}}
	child := sc
	child.parent = o.s.id
	return context.WithValue(ctx, spanKey{}, child), o
}

// end records the span.
func (o *open) end(ok bool, attr string) {
	if o == nil {
		return
	}
	o.s.end = o.sc.t.now()
	o.s.ok = ok
	o.s.attr = attr
	t := o.sc.t
	t.mu.Lock()
	t.spans = append(t.spans, o.s)
	t.mu.Unlock()
}

// id returns the span id (0 for a nil span).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.id
}

// snapshot returns a copy of every recorded span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval that its children selected by keep cover.
func selfTimes(spans []span, name string, keep func(span) bool) []float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 && (keep == nil || keep(s)) {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.name != name {
			continue
		}
		covered := coveredNS(s, kids[s.id])
		out = append(out, ms(s.dur()-time.Duration(covered)))
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// durations returns the durations in ms of every span named name that
// keep accepts (nil keeps all).
func durations(spans []span, name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && (keep == nil || keep(s)) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// count returns how many spans are named name.
func count(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.name == name {
			n++
		}
	}
	return n
}
