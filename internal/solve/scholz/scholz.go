// Package scholz implements the original PBQP solver of Scholz and
// Eckstein (LCTES 2002), as used by LLVM's PBQP register allocator.
//
// The solver repeatedly removes the vertex of minimum degree:
//
//   - degree 0 (R0): the vertex is independent; its color is the local
//     minimum, chosen during back-propagation.
//   - degree 1 (R1): the vertex's vector and edge matrix are folded into
//     its neighbor's vector; the reduction is exact.
//   - degree 2 (R2): the vertex is folded into a (possibly new) edge
//     between its two neighbors; the reduction is exact.
//   - degree ≥ 3 (RN): a heuristic, possibly sub-optimal color is chosen
//     immediately — the minimizer of the vertex cost plus each incident
//     edge's row minimum — and the selected rows are propagated to the
//     neighbors.
//
// After the graph is empty, colors are assigned in reverse removal order.
// The elimination loop, the exact folds and the reverse coloring are
// internal/reduce's (reduce.Eliminate and Reduction.Expand); this
// package adds the RN rule.
// For graphs whose vertices are mostly high degree with zero/infinity
// costs (ATE programs), RN frequently picks a row that later turns out
// infeasible, which is why the paper reports this solver failing for
// 9 of 10 ATE programs.
package scholz

import (
	"context"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/reduce"
	"pbqprl/internal/solve"
)

// Solver is the Scholz–Eckstein reduction solver.
type Solver struct{}

// Name implements solve.Solver.
func (Solver) Name() string { return "scholz" }

// Solve implements solve.Solver.
func (s Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.ContextSolver: it is reduce.Eliminate with
// reduceRN as the rule for high-degree vertices. The reduction is
// polynomial and normally finishes well inside any realistic deadline;
// when the context fires mid-reduction the solver degrades gracefully
// instead of stopping cold: every remaining vertex is colored
// immediately with the cheap RN local-minimum rule (no more exact R1/R2
// folds), so a complete — possibly worse — selection is still produced
// and marked Truncated.
func (Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	red := reduce.Eliminate(ctx, g, reduceRN)
	sel, ok := red.Expand(make(pbqp.Selection, g.NumVertices()))
	total := g.TotalCost(sel)
	return solve.Result{
		Selection: sel,
		Cost:      total,
		Feasible:  ok && !total.IsInf(),
		Truncated: red.Truncated,
		States:    int64(red.Eliminated),
	}
}

// reduceRN heuristically colors high-degree vertex u with the minimizer
// of its own cost plus, per incident edge, the best achievable combined
// edge-plus-neighbor cost (LLVM's RN local minimum), then propagates the
// selected rows (the paper's transition T) to the neighbors.
func reduceRN(g *pbqp.Graph, u int) int {
	ns := g.Neighbors(u)
	vec := g.VertexCost(u)
	mats := make([]*cost.Matrix, len(ns))
	for k, v := range ns {
		mats[k] = g.EdgeCost(u, v)
	}
	best, bestCost := -1, cost.Inf
	for i := 0; i < g.M(); i++ {
		c := vec[i]
		for k, m := range mats {
			nvec := g.VertexCost(ns[k])
			local := cost.Inf
			for j := 0; j < g.M(); j++ {
				if combined := m.At(i, j).Add(nvec[j]); combined.Less(local) {
					local = combined
				}
			}
			c = c.Add(local)
		}
		if best == -1 || c.Less(bestCost) {
			best, bestCost = i, c
		}
	}
	g.ColorVertex(u, best)
	return best
}
