package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"sort"
	"time"

	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	"pbqprl/internal/mcts"
	pbqpnet "pbqprl/internal/net"
	"pbqprl/internal/router"
	"pbqprl/internal/server"
)

// The serving configuration shared by every workload: what
// `pbqp-serve -k 50 -order dec -max-states 5000 -net <default net>`
// builds, behind a pbqp-router with its command's defaults except the
// deadline cap.
const (
	simsPerAction = 50
	// maxStates is the per-stage node/state budget. It fixes the work
	// of every search, so a faster search shows as lower latency
	// instead of being absorbed by the deadline.
	maxStates = 5000
	// requestDeadline is sent with every request, and the router's
	// MaxDeadline (pbqp-router -max-deadline) is raised to admit it.
	// The router gives each forwarding try a quarter of it, the server
	// caps that at its default 30 s and the portfolio splits the rest
	// across stages: the rl stage gets 10 s for work that takes about
	// a second, so a healthy run never truncates.
	requestDeadline = 2 * time.Minute
	// setupRepeats is how many stacks a run builds to report the
	// median set-up time.
	setupRepeats = 31
	stopTimeout  = 30 * time.Second
)

// stackHooks carries the traced run's wrappers; the zero value builds
// the untraced stack.
type stackHooks struct {
	// wrapEval wraps each per-request network clone.
	wrapEval func(mcts.Evaluator) mcts.Evaluator
	// wrapTransport wraps the router's backend transport.
	wrapTransport func(http.RoundTripper) http.RoundTripper
}

// stack is one pbqp-serve backend behind one pbqp-router, each on its
// own loopback listener.
type stack struct {
	srv     *server.Server
	rt      *router.Router
	srvHTTP *http.Server
	rtHTTP  *http.Server
	done    chan error // one value per Serve goroutine
	url     string     // router base URL
}

// startStack builds the evaluator, server and router, starts both
// listeners and returns once the router's /readyz answers 200.
func startStack(ctx context.Context, hooks stackHooks) (*stack, error) {
	base := pbqpnet.New(experiments.DefaultNetConfig())
	evaluator := func() mcts.Evaluator {
		// A private clone per request, as pbqp-serve -net does:
		// evaluators carry scratch buffers.
		var e mcts.Evaluator = base.Clone()
		if hooks.wrapEval != nil {
			e = hooks.wrapEval(e)
		}
		return e
	}
	srv, err := server.New(server.Config{
		DefaultChain: []string{"rl-bt", "liberty", "scholz"},
		MaxStates:    maxStates,
		K:            simsPerAction,
		Order:        game.OrderDecLiberty,
		Evaluator:    evaluator,
	})
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	s := &stack{srv: srv, done: make(chan error, 2)}
	srvURL, err := s.serve(srv.Handler(), &s.srvHTTP)
	if err != nil {
		return nil, err
	}

	rcfg := router.Config{
		Backends:       []string{srvURL},
		HealthInterval: time.Second,
		MaxDeadline:    requestDeadline,
	}
	if hooks.wrapTransport != nil {
		// The router's default client, with its transport wrapped.
		rcfg.Client = &http.Client{Transport: hooks.wrapTransport(&http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		})}
	}
	rt, err := router.New(rcfg)
	if err != nil {
		_ = s.stop(ctx) // the build error is the one to report
		return nil, fmt.Errorf("building router: %w", err)
	}
	s.rt = rt
	if s.url, err = s.serve(rt.Handler(), &s.rtHTTP); err != nil {
		_ = s.stop(ctx) // the start error is the one to report
		return nil, err
	}
	if err := waitReady(ctx, s.url); err != nil {
		_ = s.stop(ctx) // the start error is the one to report
		return nil, err
	}
	return s, nil
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (s *stack) serve(h http.Handler, dst **http.Server) (string, error) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	*dst = hs
	go func() { s.done <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// waitReady polls the router's /readyz until it answers 200.
func waitReady(ctx context.Context, url string) error {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router never became ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the router then the server, shuts both listeners and
// waits for the Serve goroutines to return.
func (s *stack) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, stopTimeout)
	defer cancel()
	var errs []error
	started := 0
	if s.rt != nil {
		errs = append(errs, s.rt.Drain(ctx))
	}
	if s.rtHTTP != nil {
		started++
		errs = append(errs, s.rtHTTP.Shutdown(ctx))
	}
	errs = append(errs, s.srv.Drain(ctx))
	if s.srvHTTP != nil {
		started++
		errs = append(errs, s.srvHTTP.Shutdown(ctx))
	}
	for i := 0; i < started; i++ {
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stopping stack: %w", err)
	}
	return nil
}

// measureSetup builds and stops the stack n times and returns the
// median time from the start of evaluator construction until the
// router's /readyz answered.
func measureSetup(ctx context.Context, n int) (time.Duration, error) {
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := clock()
		s, err := startStack(ctx, stackHooks{})
		if err != nil {
			return 0, err
		}
		times = append(times, clock().Sub(start))
		if err := s.stop(ctx); err != nil {
			return 0, err
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[n/2], nil
}

// clock is the benchmark's wall-clock read point.
func clock() time.Time {
	//pbqpvet:ignore determinism benchmark timing is the measurement itself, never a solver input
	return time.Now()
}
