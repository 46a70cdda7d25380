// Package solve defines the common interface of PBQP solvers and the
// statistics they report. Concrete solvers live in the subpackages
// brute (exact branch and bound), scholz (the original Scholz–Eckstein
// reduction solver) and liberty (the liberty-based enumeration solver of
// Kim et al., TACO 2020); the Deep-RL solver lives in internal/rl and
// the deadline-aware fallback chain in the portfolio subpackage.
package solve

import (
	"context"
	"fmt"
	"math"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// Result is the outcome of solving one PBQP problem. It marshals to
// JSON (infinite costs as the string "inf") so the CLI and the serving
// layer report identically.
type Result struct {
	// Selection is the color chosen for each vertex. It is only
	// meaningful when Feasible is true.
	Selection pbqp.Selection `json:"selection,omitempty"`
	// Cost is the total cost of Selection (Equation 1), or cost.Inf
	// when no finite-cost assignment was found.
	Cost cost.Cost `json:"cost"`
	// Feasible reports whether a finite-cost assignment was found.
	Feasible bool `json:"feasible"`
	// Truncated reports that the solve was cut short by context
	// cancellation or deadline expiry before the solver finished its
	// search. A truncated result carries the best feasible selection
	// found so far when one exists (Feasible is then still true); it
	// is an anytime answer, not a completed one. Budget truncation via
	// solver-specific caps (MaxStates, MaxNodes) does not set it.
	Truncated bool `json:"truncated"`
	// States counts the search states the solver explored: one per
	// attempted (vertex, color) assignment for enumeration solvers,
	// one per reduction step for reduction solvers. It is the paper's
	// search-space metric.
	States int64 `json:"states"`
}

// Solver solves PBQP problems.
type Solver interface {
	// Name identifies the solver in experiment reports.
	Name() string
	// Solve finds a (locally or globally) minimal coloring of g.
	// Implementations must not retain or mutate g.
	Solve(g *pbqp.Graph) Result
}

// ContextSolver is a Solver that honors context cancellation: SolveCtx
// periodically polls ctx and, once it is done, stops searching and
// returns its best feasible selection found so far with
// Result.Truncated set (Feasible=false when none was found yet).
// Implementations never hang past a few polling intervals and never
// panic on cancellation.
type ContextSolver interface {
	Solver
	// SolveCtx is Solve under a context. A canceled ctx truncates the
	// search; it never produces an error or a panic.
	SolveCtx(ctx context.Context, g *pbqp.Graph) Result
}

// CheckInterval is how many search states context-aware solvers explore
// between ctx polls. Polling a context is cheap but not free; at a few
// hundred states per poll the overhead is unmeasurable while a 50 ms
// deadline still lands within a small fraction of itself.
const CheckInterval = 256

// SolveCtx solves g with s under ctx: solvers implementing
// ContextSolver are cancelled cooperatively, legacy solvers run through
// the WithContext adapter (checked before starting, not interruptible
// mid-run).
func SolveCtx(ctx context.Context, s Solver, g *pbqp.Graph) Result {
	if cs, ok := s.(ContextSolver); ok {
		return cs.SolveCtx(ctx, g)
	}
	return WithContext(s).SolveCtx(ctx, g)
}

// WithContext adapts a legacy Solver to the ContextSolver interface.
// The adapter is best-effort: a context that is already done yields an
// immediate truncated, infeasible result, but once the wrapped solver
// starts it runs to completion — true mid-solve cancellation requires
// the solver to implement ContextSolver itself.
func WithContext(s Solver) ContextSolver {
	if cs, ok := s.(ContextSolver); ok {
		return cs
	}
	return ctxAdapter{s}
}

type ctxAdapter struct {
	Solver
}

// SolveCtx implements ContextSolver.
func (a ctxAdapter) SolveCtx(ctx context.Context, g *pbqp.Graph) Result {
	if ctx.Err() != nil {
		return Result{Cost: cost.Inf, Truncated: true}
	}
	res := a.Solver.Solve(g)
	return res
}

// costTolerance is the relative slack Check allows between a reported
// cost and its recomputation: solvers accumulate costs in their own
// order (liberty sums along its permuted search path), so the two may
// differ in the last bits. Infinite costs are compared exactly.
const costTolerance = 1e-9

// Check verifies the invariant every solver result must meet on g: a
// nil selection carries an infinite cost and is not feasible; any
// other selection has one color in [0, M) per vertex, dead ones
// included, a cost equal to g.TotalCost of it, and is feasible exactly
// when that cost is finite.
func Check(g *pbqp.Graph, res Result) error {
	if res.Selection == nil {
		if res.Feasible || !res.Cost.IsInf() {
			return fmt.Errorf("no selection but feasible=%t cost=%v", res.Feasible, res.Cost)
		}
		return nil
	}
	if len(res.Selection) != g.NumVertices() {
		return fmt.Errorf("selection has %d colors for %d vertices", len(res.Selection), g.NumVertices())
	}
	for u, c := range res.Selection {
		if c < 0 || c >= g.M() {
			return fmt.Errorf("vertex %d has color %d, want [0,%d)", u, c, g.M())
		}
	}
	want := g.TotalCost(res.Selection)
	if !sameCost(res.Cost, want) {
		return fmt.Errorf("reported cost %v, selection costs %v", res.Cost, want)
	}
	if res.Feasible == want.IsInf() {
		return fmt.Errorf("feasible=%t but the selection costs %v", res.Feasible, want)
	}
	return nil
}

func sameCost(got, want cost.Cost) bool {
	if got.IsInf() || want.IsInf() {
		return got.IsInf() && want.IsInf()
	}
	return math.Abs(got.Finite()-want.Finite()) <= costTolerance*math.Max(1, math.Abs(want.Finite()))
}
