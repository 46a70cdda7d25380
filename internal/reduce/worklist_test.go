package reduce

import (
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/solve/brute"
)

// applyReference is the original full-scan formulation of Apply: pick
// the (degree, id)-minimum alive vertex by scanning the whole graph
// each step. The worklist heap in Apply must reproduce its elimination
// sequence exactly.
func applyReference(g *pbqp.Graph) *Reduction {
	w := g.Clone()
	red := &Reduction{Graph: w}
	lowest := func() int {
		best, bestDeg := -1, 0
		for _, u := range w.Vertices() {
			if d := w.Degree(u); best == -1 || d < bestDeg {
				best, bestDeg = u, d
				if d == 0 {
					return u
				}
			}
		}
		return best
	}
	for {
		u := lowest()
		if u < 0 || w.Degree(u) > 2 {
			return red
		}
		red.Eliminated++
		switch w.Degree(u) {
		case 0:
			red.stack = append(red.stack, record{kind: r0, u: u, vec: w.VertexCost(u).Clone()})
			w.RemoveVertex(u)
		case 1:
			red.stack = append(red.stack, reduceR1(w, u))
		default:
			red.stack = append(red.stack, reduceR2(w, u))
		}
	}
}

// TestWorklistMatchesReferenceOrder checks that the heap-driven Apply
// is observationally identical to the full-scan reference: same
// elimination sequence (kind and vertex, in order), same residual
// bytes, same eliminated count.
func TestWorklistMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		g := randgraph.ErdosRenyi(rng, randgraph.Config{
			N:     1 + rng.Intn(14),
			M:     1 + rng.Intn(3),
			PEdge: rng.Float64() * 0.6,
			PInf:  0.05,
		})
		got := Apply(g)
		want := applyReference(g)
		if got.Eliminated != want.Eliminated {
			t.Fatalf("eliminated %d, reference %d\n%s", got.Eliminated, want.Eliminated, g)
		}
		if len(got.stack) != len(want.stack) {
			t.Fatalf("stack length %d, reference %d\n%s", len(got.stack), len(want.stack), g)
		}
		for i := range got.stack {
			if got.stack[i].kind != want.stack[i].kind || got.stack[i].u != want.stack[i].u {
				t.Fatalf("step %d: (kind=%d, u=%d), reference (kind=%d, u=%d)\n%s",
					i, got.stack[i].kind, got.stack[i].u, want.stack[i].kind, want.stack[i].u, g)
			}
		}
		if got.Graph.String() != want.Graph.String() {
			t.Fatalf("residuals differ\nworklist:\n%s\nreference:\n%s", got.Graph, want.Graph)
		}
	}
}

// TestExpandFullyDisconnected covers Expand when the whole input is
// edgeless: every vertex is R0-eliminated, the residual is empty, and
// Expand alone must recover the per-vertex minima.
func TestExpandFullyDisconnected(t *testing.T) {
	g := pbqp.New(6, 3)
	var want cost.Cost
	for u := 0; u < 6; u++ {
		vec := cost.Vector{cost.Cost(u + 3), cost.Cost(u % 2), cost.Cost(5)}
		if u == 4 {
			vec = cost.Vector{cost.Inf, cost.Cost(2), cost.Inf}
		}
		g.SetVertexCost(u, vec)
		min, _ := vec.Min()
		want = want.Add(min)
	}
	red := Apply(g)
	if red.Graph.AliveCount() != 0 {
		t.Fatalf("edgeless graph left %d residual vertices", red.Graph.AliveCount())
	}
	if red.Eliminated != 6 {
		t.Fatalf("eliminated %d of 6", red.Eliminated)
	}
	sel, ok := red.Expand(make(pbqp.Selection, g.NumVertices()))
	if !ok {
		t.Fatal("expansion failed on a feasible edgeless graph")
	}
	if got := g.TotalCost(sel); got != want {
		t.Fatalf("expanded cost %v, want sum of minima %v", got, want)
	}
	exact := brute.Solver{}.Solve(g)
	if !exact.Feasible || exact.Cost != want {
		t.Fatalf("oracle disagrees: feasible=%v cost=%v want %v", exact.Feasible, exact.Cost, want)
	}
}

// TestExpandFullyDisconnectedInfeasible: an all-infinite isolated
// vertex makes the problem infeasible, and Expand must say so even
// though the residual (empty) is trivially solvable.
func TestExpandFullyDisconnectedInfeasible(t *testing.T) {
	g := pbqp.New(3, 2)
	g.SetVertexCost(0, cost.Vector{1, 2})
	g.SetVertexCost(1, cost.Vector{cost.Inf, cost.Inf})
	g.SetVertexCost(2, cost.Vector{0, 4})
	red := Apply(g)
	if red.Graph.AliveCount() != 0 {
		t.Fatalf("edgeless graph left %d residual vertices", red.Graph.AliveCount())
	}
	sel, ok := red.Expand(pbqp.Selection{-1, -1, -1})
	if ok {
		t.Fatal("expansion succeeded despite an all-infinite isolated vertex")
	}
	// Expand keeps going past the infeasible vertex: vertex 0, which
	// it expands last, is still colored.
	assertComplete(t, g, sel)
	if sel[0] != 0 || sel[2] != 0 {
		t.Fatalf("selection %v, want the per-vertex minima 0 and 0 around vertex 1", sel)
	}
}
