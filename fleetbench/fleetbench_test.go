package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"

	"pbqprl/internal/decomp"
	"pbqprl/internal/experiments"
	"pbqprl/internal/mcts"
	pbqpnet "pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/server"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/portfolio"
	"pbqprl/internal/solve/scholz"
)

// answerBody solves g with scholz and encodes it as the server would.
func answerBody(t *testing.T, g *pbqp.Graph) (int, []byte, solve.Result) {
	t.Helper()
	res := scholz.Solver{}.Solve(g)
	body, err := json.Marshal(server.SolveResponse{Solver: "scholz", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	status := http.StatusOK
	if !res.Feasible {
		status = http.StatusUnprocessableEntity
	}
	return status, body, res
}

func TestVerifyRejectsCorruptAnswers(t *testing.T) {
	gen := bigSparseGraphs(rand.New(rand.NewSource(1)), 1)
	g, err := gen(rand.New(rand.NewSource(2)), 0)()
	if err != nil {
		t.Fatal(err)
	}
	status, body, res := answerBody(t, g)
	if !res.Feasible {
		t.Fatal("reference answer infeasible; pick another graph")
	}
	if _, err := verifyAnswer(g, status, body, false); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	encode := func(r solve.Result) []byte {
		b, err := json.Marshal(server.SolveResponse{Result: r})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	encodeStats := func(st portfolio.Stats) []byte {
		b, err := json.Marshal(server.SolveResponse{Result: res, Stats: st})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	corrupt := func(f func(r *solve.Result)) solve.Result {
		r := res
		r.Selection = append(pbqp.Selection(nil), res.Selection...)
		f(&r)
		return r
	}
	for _, tc := range []struct {
		name   string
		status int
		body   []byte
	}{
		{"color out of range", http.StatusOK, encode(corrupt(func(r *solve.Result) { r.Selection[3] = g.M() }))},
		{"short selection", http.StatusOK, encode(corrupt(func(r *solve.Result) { r.Selection = r.Selection[1:] }))},
		{"selection changed, cost kept", http.StatusOK, encode(corrupt(func(r *solve.Result) {
			r.Selection[0] = (r.Selection[0] + 1) % g.M()
		}))},
		{"wrong cost", http.StatusOK, encode(corrupt(func(r *solve.Result) { r.Cost = r.Cost.Add(1) }))},
		{"infeasible flag on a finite answer", http.StatusUnprocessableEntity, encode(corrupt(func(r *solve.Result) { r.Feasible = false }))},
		{"truncated", http.StatusOK, encode(corrupt(func(r *solve.Result) { r.Truncated = true }))},
		{"stage truncated", http.StatusOK, encodeStats(portfolio.Stats{Winner: 1, Stages: []portfolio.Outcome{
			{Name: "deep-rl+backtrack", Result: solve.Result{Truncated: true}}, {Name: "scholz", Result: res}}})},
		{"stage skipped before the winner", http.StatusOK, encodeStats(portfolio.Stats{Winner: 1, Stages: []portfolio.Outcome{
			{Name: "liberty", Skipped: true}, {Name: "scholz", Result: res}}})},
		{"status 504", http.StatusGatewayTimeout, body},
		{"undecodable", http.StatusOK, []byte("{")},
	} {
		if _, err := verifyAnswer(g, tc.status, tc.body, false); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// In the zero/infinity regime a feasible answer must cost 0.
	if res.Cost.IsZero() {
		t.Fatal("spill answer costs 0; the zero/infinity check would not bite")
	}
	if _, err := verifyAnswer(g, status, body, true); err == nil {
		t.Error("nonzero feasible answer accepted in the zero/infinity regime")
	}
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	n := pbqpnet.New(experiments.DefaultNetConfig())
	if _, ok := mcts.Evaluator(n).(mcts.BatchEvaluator); !ok {
		t.Fatal("the network is not a BatchEvaluator; the check below is vacuous")
	}
	if _, ok := wrapEvaluator(n, tr, "net.eval", false).(mcts.BatchEvaluator); !ok {
		t.Error("wrapped network lost mcts.BatchEvaluator")
	}
	if _, ok := wrapEvaluator(mcts.Uniform{}, tr, "net.eval", false).(mcts.BatchEvaluator); ok {
		t.Error("wrapped scalar evaluator gained mcts.BatchEvaluator")
	}
	var inner solve.Solver = scholz.Solver{}
	if _, ok := inner.(solve.ContextSolver); !ok {
		t.Fatal("scholz is not a ContextSolver; the check below is vacuous")
	}
	if _, ok := solve.Solver(&timedSolver{inner: inner, tr: tr}).(solve.ContextSolver); !ok {
		t.Error("timed solver is not a solve.ContextSolver")
	}
	var rt http.RoundTripper = &timedTransport{inner: &http.Transport{}, tr: tr}
	if _, ok := rt.(interface{ CloseIdleConnections() }); !ok {
		t.Error("timed transport hides CloseIdleConnections")
	}
}

// testWorkload returns the named workload. Under the race detector,
// ate-rl draws 20-vertex programs: full-size ones would outrun the rl
// stage's deadline at the detector's tenfold slowdown.
func testWorkload(name string) *workload {
	w := workloads[name]
	if !raceEnabled || name != "ate-rl" {
		return w
	}
	small := *w
	small.source = func(_ *rand.Rand, n int) graphGen {
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 20
		}
		return atePrograms(sizes)
	}
	return &small
}

// smallList builds a short request list of w.
func smallList(t *testing.T, w *workload, n int) []*request {
	t.Helper()
	reqs, err := w.build(7, n)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestTracedSolvesMatchUntraced(t *testing.T) {
	ctx := context.Background()
	for _, name := range sortedKeys(workloads) {
		w := testWorkload(name)
		t.Run(name, func(t *testing.T) {
			reqs := smallList(t, w, 4)
			check := newChecker(w, reqs)
			plain, err := runPass(ctx, w, reqs, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runPass(ctx, w, reqs, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			a, b := endToEnd(w, reqs, plain, check), endToEnd(w, reqs, traced, check)
			if a.failed+b.failed != 0 {
				t.Fatalf("failures: %v %v", a.failures, b.failures)
			}
			for i := range reqs {
				ra, rb := a.answers[i], b.answers[i]
				if !reflect.DeepEqual(ra.Result, rb.Result) {
					t.Errorf("request %d: untraced %+v, traced %+v", i, ra.Result, rb.Result)
				}
				for j := range ra.Stats.Stages {
					if sa, sb := ra.Stats.Stages[j].Result.States, rb.Stats.Stages[j].Result.States; sa != sb {
						t.Errorf("request %d stage %d: states %d untraced, %d traced", i, j, sa, sb)
					}
				}
			}
		})
	}

	// The decomp replay's timing inner solver against plain decomp.
	reqs := smallList(t, workloads["big-sparse"], 3)
	tr := newTracer()
	for i, r := range reqs {
		g, err := r.graph()
		if err != nil {
			t.Fatal(err)
		}
		want := decomp.Wrap(scholz.Solver{}).SolveCtx(ctx, g)
		got, _ := (&decomp.Solver{Inner: &timedSolver{inner: scholz.Solver{}, tr: tr, name: "decomp.inner"}}).SolveWithInfo(ctx, g)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("graph %d: decomp %v/%v, traced decomp %v/%v", i, want.Cost, want.States, got.Cost, got.States)
		}
	}
	if len(tr.named("decomp.inner")) == 0 {
		t.Error("timing inner solver recorded no spans")
	}
}

func TestCountsRepeatExactly(t *testing.T) {
	ctx := context.Background()
	counts := []string{
		"net.evals_per_solve", "mcts.nodes_per_solve", "decomp.blocks",
		"decomp.largest_block", "reduce.eliminated_share",
	}
	for _, name := range []string{"ate-rl", "big-sparse"} {
		w := testWorkload(name)
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 3, trace: true, outDir: t.TempDir(), requests: 4}
			var runs [2]*report
			for k := range runs {
				rep, err := execute(ctx, w, o)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("failures: %v", rep.failures)
				}
				runs[k] = rep
			}
			for _, c := range counts {
				if a, b := runs[0].driverMetrics[c].Value, runs[1].driverMetrics[c].Value; a != b {
					t.Errorf("%s: %v then %v", c, a, b)
				}
			}
			for _, c := range []string{"feasible_share", "cost_vs_scholz"} {
				for _, pass := range []string{"untraced.", "traced."} {
					if a, b := runs[0].extra[pass+c].Value, runs[1].extra[pass+c].Value; a != b {
						t.Errorf("%s%s: %v then %v", pass, c, a, b)
					}
				}
			}
			checkMetricNames(t, runs[0])
			if name == "ate-rl" && runs[0].driverMetrics["net.evals_per_solve"].Value == 0 {
				t.Error("no network evaluations counted")
			}
			if name == "big-sparse" && runs[0].driverMetrics["decomp.blocks"].Value == 0 {
				t.Error("no decomposition blocks counted")
			}
		})
	}
}

// checkMetricNames compares a traced report with BENCHMARK.json: the
// driver metrics are exactly the per-layer set, and the untraced pass
// reports every end-to-end metric measured per pass.
func checkMetricNames(t *testing.T, rep *report) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
		if got := rep.driverMetrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
		}
	}
	sort.Strings(want)
	if got := sortedKeys(rep.driverMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			continue
		}
		if got, ok := rep.extra["untraced."+m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s: got %+v, BENCHMARK.json unit %q", m.Name, got, m.Unit)
		}
	}
}
