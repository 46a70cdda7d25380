package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbqprl/internal/pbqp"
	"pbqprl/internal/server"
	"pbqprl/internal/solve/scholz"
)

// costTolerance is the relative slack between a reported cost and the
// benchmark's recomputation: solvers accumulate costs in their own
// order (liberty sums along its permuted search path), so the two may
// differ in the last bits. Infinite costs and the zero/infinity regime
// are checked exactly.
const costTolerance = 1e-9

// verifyAnswer checks one response against the benchmark's copy of the
// graph: a 200 or 422 status, a decodable result with no stage
// truncated, panicked or skipped for lack of time, a selection of the right length with every color below m, a reported
// cost equal to g.TotalCost(selection), feasible exactly when that cost
// is finite, the status agreeing with feasibility, and — in the
// zero/infinity regime — cost 0 on every feasible answer.
func verifyAnswer(g *pbqp.Graph, status int, body []byte, zeroInf bool) (*server.SolveResponse, error) {
	if status != http.StatusOK && status != http.StatusUnprocessableEntity {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable response: %w", err)
	}
	res := resp.Result
	if res.Truncated {
		return nil, fmt.Errorf("truncated result")
	}
	// A later stage's complete answer clears the result's truncation
	// flag, but a cut stage still changes the work and the counts.
	for j, st := range resp.Stats.Stages {
		switch {
		case st.Panicked:
			return nil, fmt.Errorf("stage %s panicked: %s", st.Name, st.PanicValue)
		case st.Result.Truncated:
			return nil, fmt.Errorf("stage %s truncated", st.Name)
		case st.Skipped && !(zeroInf && resp.Stats.Winner >= 0 && j > resp.Stats.Winner):
			return nil, fmt.Errorf("stage %s skipped by the deadline", st.Name)
		}
	}
	if (status == http.StatusOK) != res.Feasible {
		return nil, fmt.Errorf("status %d with feasible=%t", status, res.Feasible)
	}
	if res.Selection == nil {
		if res.Feasible || !res.Cost.IsInf() {
			return nil, fmt.Errorf("no selection but feasible=%t cost=%v", res.Feasible, res.Cost)
		}
		return &resp, nil
	}
	if len(res.Selection) != g.NumVertices() {
		return nil, fmt.Errorf("selection has %d colors for %d vertices", len(res.Selection), g.NumVertices())
	}
	for u, c := range res.Selection {
		if c < 0 || c >= g.M() {
			return nil, fmt.Errorf("vertex %d has color %d, want [0,%d)", u, c, g.M())
		}
	}
	want := g.TotalCost(res.Selection)
	if !sameCost(float64(res.Cost), float64(want), res.Cost.IsInf(), want.IsInf()) {
		return nil, fmt.Errorf("reported cost %v, selection costs %v", res.Cost, want)
	}
	if res.Feasible == want.IsInf() {
		return nil, fmt.Errorf("feasible=%t but the selection costs %v", res.Feasible, want)
	}
	if zeroInf && res.Feasible && !want.IsZero() {
		return nil, fmt.Errorf("zero/infinity answer costs %v, want 0", want)
	}
	return &resp, nil
}

func sameCost(got, want float64, gotInf, wantInf bool) bool {
	if gotInf || wantInf {
		return gotInf && wantInf
	}
	return math.Abs(got-want) <= costTolerance*math.Max(1, math.Abs(want))
}

// checker verifies the answers of a pass and holds the scholz
// reference costs, computed once per distinct graph on first use.
type checker struct {
	w    *workload
	reqs []*request
	// senders[i] lists the requests that sent distinct request i's body.
	senders map[int][]int
	// ref[i] is the scholz cost of distinct request i's graph (+Inf
	// when scholz finds none); NaN until computed.
	ref []float64
}

func newChecker(w *workload, reqs []*request) *checker {
	c := &checker{w: w, reqs: reqs, senders: map[int][]int{}, ref: make([]float64, len(reqs))}
	for i, r := range reqs {
		c.senders[r.first] = append(c.senders[r.first], i)
		c.ref[i] = math.NaN()
	}
	return c
}

// check regenerates every distinct graph once, on one goroutine per
// CPU, verifies the answer of every request that sent it, and the
// first time solves it with scholz.Solver, the Scholz–Eckstein
// baseline. It runs after the pass, outside the timed window.
func (c *checker) check(p *pass) (answers []*server.SolveResponse, errs []error) {
	answers = make([]*server.SolveResponse, len(c.reqs))
	errs = make([]error, len(c.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c.reqs) {
					return
				}
				if c.reqs[i].first == i {
					c.checkGraph(i, p, answers, errs)
				}
			}
		}()
	}
	wg.Wait()
	return answers, errs
}

// checkGraph handles distinct request i; it writes only the slots of
// the requests that sent i's body.
func (c *checker) checkGraph(i int, p *pass, answers []*server.SolveResponse, errs []error) {
	g, err := c.reqs[i].graph()
	if err != nil {
		for _, j := range c.senders[i] {
			errs[j] = fmt.Errorf("regenerating the graph: %w", err)
		}
		return
	}
	for _, j := range c.senders[i] {
		s := p.samples[j]
		if s.err != nil {
			errs[j] = s.err
			continue
		}
		if answers[j], errs[j] = verifyAnswer(g, s.status, s.body, c.w.zeroInf()); errs[j] != nil {
			errs[j] = fmt.Errorf("verification: %w", errs[j])
		}
	}
	if math.IsNaN(c.ref[i]) {
		c.ref[i] = math.Inf(1)
		if r := (scholz.Solver{}).Solve(g); !r.Cost.IsInf() {
			c.ref[i] = float64(r.Cost)
		}
	}
}

// e2e are the end-to-end numbers of one pass.
type e2e struct {
	attempted, failed, samples int
	failures                   []string
	answers                    []*server.SolveResponse // nil where the request failed
	metrics                    map[string]metric
	extra                      map[string]metric
}

// maxReportedFailures caps the failure lines printed to stderr.
const maxReportedFailures = 5

// endToEnd verifies every answer of a pass and derives the end-to-end
// metrics.
func endToEnd(w *workload, reqs []*request, p *pass, c *checker) *e2e {
	answers, errs := c.check(p)
	out := &e2e{
		attempted: len(reqs),
		samples:   len(p.samples),
		answers:   answers,
	}
	fail := func(i int, err error) {
		out.failed++
		if len(out.failures) < maxReportedFailures {
			out.failures = append(out.failures, fmt.Sprintf("%s request %d: %v", w.name, i, err))
		}
	}
	lat := make([]float64, len(p.samples))
	feasible := 0
	var ansSum, refSum float64
	for i, s := range p.samples {
		lat[i] = ms(s.end.Sub(s.start))
		if errs[i] != nil {
			fail(i, errs[i])
			continue
		}
		res := answers[i].Result
		if !res.Feasible {
			continue
		}
		feasible++
		if ref := c.ref[reqs[i].first]; !math.IsInf(ref, 1) {
			ansSum += float64(res.Cost)
			refSum += ref
		}
	}
	answered := out.attempted - out.failed
	sort.Float64s(lat)
	out.metrics = map[string]metric{
		"solves_per_s":       {float64(answered) / p.window.Seconds(), "1/s"},
		"latency_p50_ms":     {percentile(lat, 0.50), "ms"},
		"latency_p90_ms":     {percentile(lat, 0.90), "ms"},
		"feasible_share":     {ratio(float64(feasible), float64(answered)), "share"},
		"cost_vs_scholz":     {costRatio(ansSum, refSum), "ratio"},
		"alloc_mb_per_solve": {ratio(float64(p.allocBytes)/1e6, float64(answered)), "MB"},
	}
	out.extra = map[string]metric{
		"error_share": {ratio(float64(out.failed), float64(out.attempted)), "share"},
		"window_s":    {p.window.Seconds(), "s"},
		"samples":     {float64(out.samples), "count"},
	}
	return out
}

// costRatio is Σ answered cost / Σ reference cost over the requests
// both answered feasibly. In the zero/infinity regime both sums are 0
// and the answers match the reference exactly, which reads as 1.
func costRatio(ans, ref float64) float64 {
	if ref <= 0 && ans <= 0 {
		return 1
	}
	return ratio(ans, ref)
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
