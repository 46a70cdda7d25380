package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the client-side record of one request.
type sample struct {
	start, end time.Time
	status     int
	cache      string // the router's X-PBQP-Cache header: hit, miss or coalesced
	body       []byte
	err        error // transport or read error
}

// pass is one closed-loop run of a request list through a fresh stack.
type pass struct {
	samples []sample
	window  time.Duration // first send to last response read
	// allocBytes is the process TotalAlloc over the window.
	allocBytes uint64
}

// runPass starts a stack (traced when tr is non-nil), drives every
// request through the router with one client per CPU, each on one
// keep-alive connection, and stops the stack.
func runPass(ctx context.Context, w *workload, reqs []*request, tr *tracer) (*pass, error) {
	var hooks stackHooks
	if tr != nil {
		hooks = tr.hooks()
	}
	s, err := startStack(ctx, hooks)
	if err != nil {
		return nil, err
	}
	p := drive(ctx, s.url, w, reqs, tr)
	if err := s.stop(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// drive is the closed loop: each client takes the next request of the
// list, sends it and reads the whole response before taking another,
// until the list is exhausted.
func drive(ctx context.Context, url string, w *workload, reqs []*request, tr *tracer) *pass {
	p := &pass{samples: make([]sample, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	// Start every window from a collected heap, so the previous pass's
	// garbage is not charged to this one.
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := clock()
	for c := 0; c < runtime.NumCPU(); c++ {
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				p.samples[i] = send(ctx, client, url, w, reqs[i])
				if tr != nil {
					tr.record("client.request", 0, i, p.samples[i].start, p.samples[i].end)
				}
			}
		}()
	}
	wg.Wait()
	p.window = clock().Sub(start)
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	return p
}

// send posts one request and reads the full response.
func send(ctx context.Context, client *http.Client, url string, w *workload, r *request) sample {
	var s sample
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-PBQP-Chain", w.chain)
	req.Header.Set("X-PBQP-Cost-Mode", w.costMode)
	req.Header.Set("X-PBQP-Deadline", requestDeadline.String())
	s.start = clock()
	resp, err := client.Do(req)
	if err != nil {
		s.end = clock()
		s.err = err
		return s
	}
	s.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = clock()
	if err != nil {
		s.err = fmt.Errorf("reading response: %w", err)
		return s
	}
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-PBQP-Cache")
	return s
}
