package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pbqprl/internal/gcn"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
	"pbqprl/internal/tensor"
)

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0: no parent the benchmark can see
	Name   string `json:"name"`
	// Req is the request index, or -1 where the boundary cannot join
	// one (the router→backend hop, network evaluations).
	Req   int   `json:"req"`
	Start int64 `json:"start_ns"` // since the tracer started
	End   int64 `json:"end_ns"`
	// Count is the work the span covers (views evaluated); 0 means 1.
	Count int `json:"count,omitempty"`
	// Alloc is the bytes allocated inside the span, where measured.
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) count() int {
	if s.Count == 0 {
		return 1
	}
	return s.Count
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: clock()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add stores a finished span under a pre-allocated id.
func (t *tracer) add(s span, start, end time.Time) {
	s.Start = start.Sub(t.t0).Nanoseconds()
	s.End = end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent int64, req int, start, end time.Time) int64 {
	id := t.newID()
	t.add(span{ID: id, Parent: parent, Name: name, Req: req}, start, end)
	return id
}

// named returns a copy of the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// hooks wires the tracer into a stack: every network clone and the
// router's backend transport.
func (t *tracer) hooks() stackHooks {
	return stackHooks{
		wrapEval: func(e mcts.Evaluator) mcts.Evaluator { return wrapEvaluator(e, t, "net.eval", false) },
		wrapTransport: func(rt http.RoundTripper) http.RoundTripper {
			return &timedTransport{inner: rt, tr: t}
		},
	}
}

// dump writes the spans as JSON lines to dir/spans-<workload>.jsonl
// and returns the path.
func (t *tracer) dump(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close() // the success path checks Close below
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// timedEvaluator records one span per evaluation of the evaluator it
// wraps, optionally with the bytes the evaluation allocated (measured
// with runtime.ReadMemStats, so only on a goroutine running alone).
type timedEvaluator struct {
	inner        mcts.Evaluator
	tr           *tracer
	name         string
	measureAlloc bool
}

// timedBatchEvaluator is the wrapper of an evaluator that also serves
// batches: it keeps mcts's mcts.BatchEvaluator type assertion true, so
// the traced search takes the same path as the untraced one.
type timedBatchEvaluator struct {
	*timedEvaluator
	batch mcts.BatchEvaluator
}

// wrapEvaluator wraps e, forwarding the batched path exactly when e
// has one.
func wrapEvaluator(e mcts.Evaluator, tr *tracer, name string, measureAlloc bool) mcts.Evaluator {
	te := &timedEvaluator{inner: e, tr: tr, name: name, measureAlloc: measureAlloc}
	if be, ok := e.(mcts.BatchEvaluator); ok {
		return &timedBatchEvaluator{timedEvaluator: te, batch: be}
	}
	return te
}

// Evaluate implements mcts.Evaluator.
func (e *timedEvaluator) Evaluate(view gcn.View) (prior tensor.Vec, value float64) {
	e.timed(1, func() { prior, value = e.inner.Evaluate(view) })
	return prior, value
}

// EvaluateBatch implements mcts.BatchEvaluator.
func (e *timedBatchEvaluator) EvaluateBatch(views []gcn.View) (priors []tensor.Vec, values []float64) {
	e.timed(len(views), func() { priors, values = e.batch.EvaluateBatch(views) })
	return priors, values
}

func (e *timedEvaluator) timed(n int, f func()) {
	var before, after runtime.MemStats
	if e.measureAlloc {
		runtime.ReadMemStats(&before)
	}
	start := clock()
	f()
	end := clock()
	s := span{ID: e.tr.newID(), Name: e.name, Req: -1, Count: n}
	if e.measureAlloc {
		runtime.ReadMemStats(&after)
		s.Alloc = after.TotalAlloc - before.TotalAlloc
	}
	e.tr.add(s, start, end)
}

// timedTransport records the router→backend hop of every solve: from
// the round trip's start until the router closes the response body.
// The router forwards only the X-PBQP-* knobs, so hops carry no
// request id and are reported in aggregate.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

// RoundTrip implements http.RoundTripper.
func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := clock()
	resp, err := t.inner.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/solve" {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.tr.record("router.backend", 0, -1, start, clock())
	}}
	return resp, nil
}

// CloseIdleConnections forwards to the wrapped transport, which the
// router's Drain reaches through http.Client.CloseIdleConnections.
func (t *timedTransport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedSolver records one span per solve of the solver it wraps, as a
// child of parent. It is a solve.ContextSolver whose SolveCtx is
// solve.SolveCtx on the wrapped solver, so a caller that goes through
// solve.SolveCtx — as decomp does for its inner solver — runs the
// wrapped solver exactly as it would unwrapped.
type timedSolver struct {
	inner  solve.Solver
	tr     *tracer
	name   string
	parent int64
	req    int
}

// Name implements solve.Solver.
func (s *timedSolver) Name() string { return s.inner.Name() }

// Solve implements solve.Solver.
func (s *timedSolver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.ContextSolver.
func (s *timedSolver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	start := clock()
	res := solve.SolveCtx(ctx, s.inner, g)
	s.tr.record(s.name, s.parent, s.req, start, clock())
	return res
}
