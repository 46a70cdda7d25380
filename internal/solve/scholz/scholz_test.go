package scholz

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve"
	"pbqprl/internal/solve/brute"
)

func fig2Graph() *pbqp.Graph {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{5, 2})
	g.SetVertexCost(1, cost.Vector{5, 0})
	g.SetVertexCost(2, cost.Vector{0, 0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{1, 3}, {7, 8}}))
	g.SetEdgeCost(1, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 4}, {9, 6}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{0, 2}, {5, 3}}))
	return g
}

func TestFig2IsSolvedOptimally(t *testing.T) {
	// a triangle reduces by R2/R1/R0 only, all exact
	res := Solver{}.Solve(fig2Graph())
	if !res.Feasible || res.Cost != 11 {
		t.Errorf("got (%v, feasible=%v), want (11, true)", res.Cost, res.Feasible)
	}
}

func TestDoesNotMutateInput(t *testing.T) {
	g := fig2Graph()
	before := g.String()
	Solver{}.Solve(g)
	if g.String() != before {
		t.Error("Solve mutated its input")
	}
}

func TestLowDegreeGraphsAreOptimal(t *testing.T) {
	// Graphs whose reduction never needs RN (max degree ≤ 2 at every
	// step): paths and cycles. The solver must match the brute optimum.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(3)
		g := pbqp.New(n, m)
		for u := 0; u < n; u++ {
			vec := make(cost.Vector, m)
			for i := range vec {
				vec[i] = cost.Cost(rng.Intn(20))
			}
			g.SetVertexCost(u, vec)
		}
		addRandEdge := func(u, v int) {
			mat := cost.NewMatrix(m, m)
			for i := range mat.Data {
				mat.Data[i] = cost.Cost(rng.Intn(20))
			}
			if mat.IsZero() {
				mat.Set(0, 0, 1)
			}
			g.SetEdgeCost(u, v, mat)
		}
		for u := 0; u+1 < n; u++ {
			addRandEdge(u, u+1)
		}
		if trial%2 == 0 {
			addRandEdge(n-1, 0) // close the cycle
		}
		want := (brute.Solver{}).Solve(g)
		got := Solver{}.Solve(g)
		if !got.Feasible {
			t.Fatalf("trial %d: infeasible on a finite graph", trial)
		}
		if d := float64(got.Cost - want.Cost); d > 1e-9 || d < -1e-9 {
			t.Fatalf("trial %d: cost %v, optimum %v", trial, got.Cost, want.Cost)
		}
	}
}

func TestRandomGraphsSelectionConsistent(t *testing.T) {
	// On general graphs the RN heuristic may be sub-optimal, but the
	// reported cost must always equal the cost of the reported
	// selection, and must never beat the true optimum.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N: 3 + rng.Intn(7), M: 2 + rng.Intn(3), PEdge: 0.6, PInf: 0.1,
		})
		got := Solver{}.Solve(g)
		if got.Feasible {
			if c := g.TotalCost(got.Selection); !approxEq(c, got.Cost) {
				t.Fatalf("trial %d: cost %v but selection costs %v", trial, got.Cost, c)
			}
			want := (brute.Solver{}).Solve(g)
			if got.Cost.Less(want.Cost) && !approxEq(got.Cost, want.Cost) {
				t.Fatalf("trial %d: beat the optimum: %v < %v", trial, got.Cost, want.Cost)
			}
		}
	}
}

func TestDisconnectedVertices(t *testing.T) {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{4, 7})
	g.SetVertexCost(1, cost.Vector{9, 1})
	g.SetVertexCost(2, cost.Vector{cost.Inf, 3})
	res := Solver{}.Solve(g)
	if !res.Feasible || res.Cost != 8 {
		t.Errorf("got (%v, %v), want (8, true)", res.Cost, res.Feasible)
	}
	if res.Selection[0] != 0 || res.Selection[1] != 1 || res.Selection[2] != 1 {
		t.Errorf("selection = %v", res.Selection)
	}
}

func TestInfeasibleVertex(t *testing.T) {
	g := pbqp.New(1, 2)
	g.SetVertexCost(0, cost.NewInfVector(2))
	res := Solver{}.Solve(g)
	if res.Feasible {
		t.Error("reported feasible for an all-inf vertex")
	}
}

// TestATEStyleOftenFails reproduces the Section V-B observation that the
// original solver, which approximates all high-degree vertices, usually
// fails on dense zero/infinity graphs even though a solution exists.
func TestATEStyleOftenFails(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
			N: 60, M: 13, PEdge: 0.25, HardRatio: 0.4, PEdgeInf: 0.35,
		})
		if res := (Solver{}).Solve(g); !res.Feasible {
			failures++
		}
	}
	if failures == 0 {
		t.Error("scholz never failed on dense zero/inf graphs; RN heuristic suspiciously strong")
	}
	t.Logf("scholz failed %d/%d dense zero/inf graphs", failures, trials)
}

func TestR2CreatesEdge(t *testing.T) {
	// star: center 0 connected to 1 and 2 (degree 2), no edge (1,2);
	// R2 on vertex 0 must create edge (1,2) and stay exact.
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{1, 5})
	g.SetVertexCost(1, cost.Vector{0, 2})
	g.SetVertexCost(2, cost.Vector{3, 0})
	g.SetEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{0, 6}, {2, 0}}))
	g.SetEdgeCost(0, 2, cost.NewMatrixFrom([][]cost.Cost{{4, 0}, {0, 3}}))
	want := (brute.Solver{}).Solve(g)
	got := Solver{}.Solve(g)
	if !got.Feasible || got.Cost != want.Cost {
		t.Errorf("got %v, want %v", got.Cost, want.Cost)
	}
}

func TestStatesCounted(t *testing.T) {
	res := Solver{}.Solve(fig2Graph())
	if res.States != 3 {
		t.Errorf("states = %d, want 3 (one per reduction)", res.States)
	}
}

func approxEq(a, b cost.Cost) bool {
	if a.IsInf() || b.IsInf() {
		return a.IsInf() == b.IsInf()
	}
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+float64(a)+float64(b))
}

// solveReference is the original self-contained formulation of
// SolveCtx: pick the (degree, id)-minimum alive vertex by scanning the
// whole graph every step, fold it with its own copies of R0/R1/R2 or
// color it with reduceRN, then back-propagate colors in reverse removal
// order. SolveCtx, built on reduce.Eliminate, must reproduce its
// results exactly.
func solveReference(ctx context.Context, g *pbqp.Graph) solve.Result {
	w := g.Clone()
	var stack []refRecord
	var states int64
	truncated := ctx.Err() != nil
	for w.AliveCount() > 0 {
		states++
		if !truncated && states%solve.CheckInterval == 0 && ctx.Err() != nil {
			truncated = true
		}
		u := -1
		for _, v := range w.Vertices() {
			if u == -1 || w.Degree(v) < w.Degree(u) {
				u = v
			}
		}
		d := w.Degree(u)
		switch {
		case truncated || d > 2:
			stack = append(stack, refRecord{rn: true, u: u, chosen: reduceRN(w, u)})
		case d == 0:
			stack = append(stack, refRecord{u: u, vec: w.VertexCost(u).Clone()})
			w.RemoveVertex(u)
		default:
			stack = append(stack, refFold(w, u))
		}
	}

	sel := make(pbqp.Selection, g.NumVertices())
	feasible := true
	for i := len(stack) - 1; i >= 0; i-- {
		c := stack[i].backPropagate(sel)
		if c < 0 {
			feasible = false
			c = 0
		}
		sel[stack[i].u] = c
	}
	total := g.TotalCost(sel)
	return solve.Result{
		Selection: sel,
		Cost:      total,
		Feasible:  feasible && !total.IsInf(),
		Truncated: truncated,
		States:    states,
	}
}

// refRecord is one elimination of solveReference.
type refRecord struct {
	rn     bool
	u      int
	vec    cost.Vector
	nbrs   []int
	mats   []*cost.Matrix
	chosen int
}

// refFold folds degree-1 vertex u into its neighbor's vector (R1) or
// degree-2 vertex u into the edge between its neighbors (R2).
func refFold(g *pbqp.Graph, u int) refRecord {
	ns := g.Neighbors(u)
	rec := refRecord{u: u, vec: g.VertexCost(u).Clone(), nbrs: ns}
	for _, v := range ns {
		rec.mats = append(rec.mats, g.EdgeCost(u, v).Clone())
	}
	m := g.M()
	if len(ns) == 1 {
		delta := make(cost.Vector, m)
		for j := 0; j < m; j++ {
			best := cost.Inf
			for i := 0; i < m; i++ {
				if c := rec.vec[i].Add(rec.mats[0].At(i, j)); c.Less(best) {
					best = c
				}
			}
			delta[j] = best
		}
		g.AddToVertexCost(ns[0], delta)
		g.RemoveVertex(u)
		return rec
	}
	delta := cost.NewMatrix(m, m)
	for jy := 0; jy < m; jy++ {
		for jz := 0; jz < m; jz++ {
			best := cost.Inf
			for i := 0; i < m; i++ {
				if c := rec.vec[i].Add(rec.mats[0].At(i, jy)).Add(rec.mats[1].At(i, jz)); c.Less(best) {
					best = c
				}
			}
			delta.Set(jy, jz, best)
		}
	}
	y, z := ns[0], ns[1]
	g.RemoveVertex(u)
	g.AddEdgeCost(y, z, delta)
	if g.EdgeCost(y, z).IsZero() {
		g.RemoveEdge(y, z)
	}
	return rec
}

// backPropagate re-derives the removed vertex's color from the colors
// already assigned to its former neighbors, or -1 when every color is
// infinite.
func (rec *refRecord) backPropagate(sel pbqp.Selection) int {
	if rec.rn {
		return rec.chosen
	}
	if len(rec.nbrs) == 0 {
		_, idx := rec.vec.Min()
		return idx
	}
	best, bestCost := -1, cost.Inf
	for i := range rec.vec {
		c := rec.vec[i]
		for k, v := range rec.nbrs {
			c = c.Add(rec.mats[k].At(i, sel[v]))
		}
		if !c.IsInf() && (best == -1 || c.Less(bestCost)) {
			best, bestCost = i, c
		}
	}
	return best
}

// TestMatchesReference pins SolveCtx bit-identical to solveReference
// on random graphs with infinite entries, dead vertices and all-infinite
// vectors, on large sparse graphs, on the ATE suite, and on the all-RN
// path a pre-cancelled context takes; every result must also meet
// solve.Check.
func TestMatchesReference(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	compare := func(name string, ctx context.Context, g *pbqp.Graph) {
		t.Helper()
		got := Solver{}.SolveCtx(ctx, g)
		if err := solve.Check(g, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := solveReference(ctx, g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v\nreference %+v", name, got, want)
		}
	}

	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N:     1 + rng.Intn(30),
			M:     1 + rng.Intn(4),
			PEdge: rng.Float64() * 0.5,
			PInf:  rng.Float64() * 0.3,
		})
		for u := 0; u < g.NumVertices(); u++ {
			switch r := rng.Float64(); {
			case r < 0.1:
				g.RemoveVertex(u)
			case r < 0.15:
				g.SetVertexCost(u, cost.NewInfVector(g.M()))
			}
		}
		name := fmt.Sprintf("random graph %d", trial)
		compare(name, context.Background(), g)
		if trial%10 == 0 {
			compare(name+" (cancelled)", cancelled, g)
		}
	}

	for _, n := range []int{1000, 4000} {
		g := randgraph.LargeSparse(rand.New(rand.NewSource(101)), randgraph.LargeSparseConfig{
			N: n, M: 4, Components: 8, ClusterSize: 12, Chords: 4,
		})
		compare(fmt.Sprintf("LargeSparse n=%d", n), context.Background(), g)
		compare(fmt.Sprintf("LargeSparse n=%d (cancelled)", n), cancelled, g)
	}

	for _, b := range ate.Suite() {
		compare(b.Program.Name, context.Background(), b.Graph)
		compare(b.Program.Name+" (cancelled)", cancelled, b.Graph)
	}
}
