// Package server is the PBQP allocation service: a stdlib-only
// net/http layer that accepts PBQP graphs in the textual format,
// solves each request through a deadline-aware solver portfolio on a
// bounded worker pool, and reports per-stage statistics both in the
// response and through the built-in metrics registry.
//
// The production spine, in request order:
//
//   - input hardening: http.MaxBytesReader plus tightened
//     pbqp.ReadLimits on the parse path — hostile bodies are rejected
//     before any large allocation;
//   - admission control: a fixed worker pool behind a bounded queue;
//     past queue capacity the server sheds load with 429 + Retry-After
//     instead of queueing unboundedly, and while draining it answers
//     503;
//   - deadline propagation: each request's solve runs under the
//     client's deadline capped by the server maximum, derived from the
//     request context, so client disconnects cancel queued solves too;
//   - panic isolation: a panicking solve takes down its request (500,
//     with the offending graph serialized to the log for offline
//     reproduction, like the portfolio does per stage), never the
//     process;
//   - graceful drain: Drain stops admission (readyz goes 503, new
//     solves get 503), finishes every accepted request, then stops the
//     workers — the SIGTERM path of cmd/pbqp-serve.
//
// Endpoints: POST /v1/solve, GET /metrics (expvar-style JSON), GET
// /healthz, GET /readyz, and the /debug/pprof/* profiles.
package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"pbqprl/internal/decomp"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/rl"
	"pbqprl/internal/server/metrics"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/anneal"
	"pbqprl/internal/solve/brute"
	"pbqprl/internal/solve/liberty"
	"pbqprl/internal/solve/scholz"
)

// Config tunes a Server. The zero value is serviceable: every field
// falls back to the documented default.
type Config struct {
	// Workers is the solver worker-pool size — the number of solves
	// in flight at once. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; requests beyond
	// Workers+QueueDepth in flight are shed with 429. Default: 128.
	QueueDepth int
	// MaxRequestBytes caps the request body. Default: 4 MiB.
	MaxRequestBytes int64
	// DefaultDeadline is the per-request solve budget when the client
	// does not ask for one. Default: 2s.
	DefaultDeadline time.Duration
	// MaxDeadline caps the client-requested deadline. Default: 30s.
	MaxDeadline time.Duration
	// RetryAfter is the hint returned with 429/503 responses.
	// Default: 1s.
	RetryAfter time.Duration
	// ReadLimits tightens the PBQP parser caps for request bodies.
	// Zero fields use the pbqp package defaults.
	ReadLimits pbqp.ReadLimits
	// DefaultChain is the solver fallback chain used when the request
	// does not select one. Default: rl-bt → liberty → scholz, the
	// same chain as pbqp-solve -portfolio. A "decomp:" prefix on any
	// stage name (e.g. "decomp:scholz") routes that stage through the
	// big-graph decomposition pipeline.
	DefaultChain []string
	// MaxStates is the per-stage search budget. Default: 50,000,000.
	MaxStates int64
	// K is the MCTS simulations-per-action count for rl stages.
	// Default: 50.
	K int
	// Order is the coloring order for rl stages; the zero value is
	// game.OrderFixed. cmd/pbqp-serve defaults its flag to the
	// paper's best, decreasing liberty.
	Order game.Order
	// Evaluator supplies the MCTS evaluator for rl stages; the factory
	// is called once per admitted request that uses one. It must hand
	// every request a private evaluator — a network clone, as
	// cmd/pbqp-serve -net does — because evaluators carry scratch
	// buffers that are not safe to share across worker goroutines. Nil
	// uses the uniform (untrained) prior.
	Evaluator func() mcts.Evaluator
	// MakeSolver overrides solver construction by name; tests inject
	// blocking or panicking solvers through it. Nil uses the built-in
	// names (brute, scholz, liberty, anneal, rl, rl-bt).
	MakeSolver func(name string) (solve.Solver, error)
	// Logf receives operational log lines (panic reports with graph
	// serializations, drain progress). Nil uses a no-op; cmd/pbqp-serve
	// passes log.Printf.
	Logf func(format string, args ...any)
	// Registry receives the server's metrics. Nil creates a fresh one.
	Registry *metrics.Registry
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 4 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if len(c.DefaultChain) == 0 {
		c.DefaultChain = []string{"rl-bt", "liberty", "scholz"}
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 50_000_000
	}
	if c.K <= 0 {
		c.K = 50
	}
	if c.Evaluator == nil {
		c.Evaluator = func() mcts.Evaluator { return mcts.Uniform{} }
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Server is the allocation service. Create with New, expose via
// Handler, stop via Drain.
type Server struct {
	cfg Config
	reg *metrics.Registry
	adm *Admission
	mux *http.ServeMux
}

// New builds a Server (workers started, not yet listening — the caller
// owns the http.Server/listener so tests can use httptest).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Validate the default chain eagerly: a typo should fail startup,
	// not every request.
	if _, err := buildChain(cfg, cfg.DefaultChain); err != nil {
		return nil, fmt.Errorf("server: default chain: %w", err)
	}
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
		adm: NewAdmission(cfg.Workers, cfg.QueueDepth),
		mux: http.NewServeMux(),
	}
	s.reg.Gauge("queue_depth").Set(0)
	s.reg.Gauge("requests_inflight").Set(0)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool { return s.adm.IsDraining() }

// Drain gracefully shuts the solve path down: admission flips to
// draining (new solves and readyz answer 503), every accepted request
// runs to completion, then the workers exit. It returns nil on a
// complete drain and the context's error if the deadline cut it short.
// The caller still owns its http.Server and should Shutdown it after
// Drain returns so late health probes get answers during the drain.
func (s *Server) Drain(ctx context.Context) error {
	s.cfg.Logf("server: draining (in flight: %d queued: %d)",
		s.reg.Gauge("requests_inflight").Value(), s.adm.Depth())
	err := s.adm.Drain(ctx)
	if err != nil {
		s.cfg.Logf("server: drain incomplete: %v", err)
		return err
	}
	s.cfg.Logf("server: drain complete")
	return nil
}

// handleMetrics serves the registry snapshot. queue_depth is sampled
// here rather than written from request handlers: concurrent handlers
// racing Gauge.Set could persist a stale pre-dequeue snapshot, whereas
// sampling at scrape time always reflects the queue as it is now.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge("queue_depth").Set(int64(s.adm.Depth()))
	s.reg.ServeHTTP(w, r)
}

// handleHealthz answers liveness: 200 as long as the process serves
// HTTP, draining included — a draining server is still healthy, just
// not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.adm.IsDraining(),
	})
}

// handleReadyz answers readiness: 200 while accepting, 503 once
// draining so load balancers stop routing new work here. The 503
// carries the same load-derived Retry-After hint as the solve path, so
// a router's health prober knows when to re-check a draining replica.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.adm.IsDraining() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.retryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// buildChain constructs fresh solver instances for the named chain.
// Fresh per request on purpose: solver structs carry per-solve state,
// and the Evaluator factory gives each request a private network
// (evaluators carry scratch buffers that are not safe to share across
// worker goroutines).
func buildChain(cfg Config, names []string) ([]solve.Solver, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("empty solver chain")
	}
	chain := make([]solve.Solver, 0, len(names))
	for _, name := range names {
		sv, err := makeSolver(cfg, name)
		if err != nil {
			return nil, err
		}
		chain = append(chain, sv)
	}
	return chain, nil
}

// makeSolver builds one solver by name, honoring the test override. A
// "decomp:" prefix wraps the named solver in the big-graph
// decomposition pipeline (internal/decomp) — e.g. "decomp:scholz"
// reduces, splits into biconnected blocks, solves each block with
// scholz, and recombines. Components solve sequentially per request;
// the server already runs requests in parallel across its worker pool.
func makeSolver(cfg Config, name string) (solve.Solver, error) {
	if inner, ok := strings.CutPrefix(name, "decomp:"); ok {
		sv, err := makeSolver(cfg, inner)
		if err != nil {
			return nil, err
		}
		return decomp.Wrap(sv), nil
	}
	if cfg.MakeSolver != nil {
		return cfg.MakeSolver(name)
	}
	switch name {
	case "brute":
		return brute.Solver{MaxStates: cfg.MaxStates}, nil
	case "scholz":
		return scholz.Solver{}, nil
	case "liberty":
		return liberty.Solver{MaxStates: cfg.MaxStates}, nil
	case "anneal":
		return anneal.Solver{}, nil
	case "rl", "rl-bt":
		return &rl.Solver{Net: cfg.Evaluator(), Cfg: rl.Config{
			K:            cfg.K,
			Order:        cfg.Order,
			Backtrack:    name == "rl-bt",
			ReinvokeMCTS: true,
			MaxNodes:     cfg.MaxStates,
		}}, nil
	default:
		return nil, fmt.Errorf("unknown solver %q (want brute, scholz, liberty, anneal, rl, or rl-bt, optionally prefixed decomp:)", name)
	}
}
