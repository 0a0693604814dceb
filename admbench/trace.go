package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary the benchmark owns. All
// spans of one HTTP request share Req (its X-Request-ID); Parent is the ID
// of the span that caused this one (0 for a root). In and Out count the
// request and response body bytes a handler span moved.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	In     int64  `json:"in_bytes,omitempty"`
	Out    int64  `json:"out_bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and no middleware is installed.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	solves []float64 // forecast solve durations (ms) by end time
	solveT []int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(name string, parent uint64, req string, fn func()) {
	t.timedAs(t.id(), name, parent, req, fn)
}

// timedAs is timed with the span's ID chosen by the caller, so spans
// recorded inside fn can name it as their parent.
func (t *tracer) timedAs(id uint64, name string, parent uint64, req string, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now()}
	fn()
	s.End = t.now()
	t.add(s)
}

func (t *tracer) noteSolve(ms float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.solves = append(t.solves, ms)
	t.solveT = append(t.solveT, t.now())
	t.mu.Unlock()
}

// spanRef is the request context a handler span hands to the hooks it
// composes (WaitReplicated, the shard Invoke phase hook).
type spanRef struct {
	id  uint64
	req string
}

type spanKey struct{}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// hook wraps a call made from inside a handler with a span named name,
// parented to the handler span found in ctx.
func (t *tracer) hook(ctx context.Context, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	ref := refFrom(ctx)
	var err error
	t.timed(name, ref.id, ref.req, func() { err = fn() })
	return err
}

// wrap is the middleware around every HTTP front end: one span per
// request, request and response body bytes, and the replica stream polls
// (which arrive from the standby, not from a load client).
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.id(), Req: r.Header.Get("X-Request-ID"), Name: "http.handler", Start: t.now()}
		if r.URL.Path == "/v1/replica/stream" {
			s.Name = "replica.poll"
		}
		s.Parent, _ = strconv.ParseUint(r.Header.Get("X-Parent-Span"), 10, 64)
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id: s.ID, req: s.Req})
		h.ServeHTTP(cw, r.WithContext(ctx))
		s.End = t.now()
		s.In, s.Out = body.n, cw.n
		t.add(s)
	})
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// window returns the spans whose start lies in [from, to).
func (t *tracer) window(from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the total self time in ms: each span's
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
