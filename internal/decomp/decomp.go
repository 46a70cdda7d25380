// Package decomp turns one huge PBQP instance into many small ones: a
// solver-independent front end that (1) runs the exact R0/R1/R2
// reductions to a fixpoint, (2) snapshots the residual into a compact
// CSR adjacency, (3) splits it into connected components and
// articulation-point-separated biconnected blocks via a block-cut
// tree, and (4) solves each block independently with the wrapped inner
// solver, folding per-color block optima into the cut vertices'
// vectors so blocks compose exactly, then recombines the selections
// and expands the eliminated vertices.
//
// The folding step is the load-bearing trick (DESIGN.md §13): a
// non-root block B whose anchor cut vertex c is pinned to color a is
// solved with c's vector replaced by "0 at a, ∞ elsewhere", so the
// block optimum f_B(a) covers B's interior vertices and edges but not
// c itself; adding f_B(a) to c's vector entry a makes the parent
// block's view of c cost-equivalent to "c plus everything hanging
// below it". With an exact inner solver the recombined selection is a
// global optimum of Equation 1; with a heuristic inner solver every
// fold is an upper bound and quality degrades no faster than the
// heuristic itself.
//
// Wrap any solve.Solver and it transparently becomes a big-graph
// solver: components solve under bounded parallelism (results merged
// in component order, so the selection is deterministic for a
// deterministic inner solver), and the shared ctx budget cancels all
// of it.
package decomp

import (
	"context"
	"sync"
	"sync/atomic"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/reduce"
	"pbqprl/internal/solve"
)

// Solver decomposes a graph and solves the pieces with Inner. It
// implements solve.Solver and solve.ContextSolver.
type Solver struct {
	// Inner solves the individual blocks. It must be exact (brute) for
	// exact decomposition; any solver works for heuristic use.
	Inner solve.Solver
	// Workers bounds how many connected components solve in parallel.
	// ≤ 1 solves sequentially. Workers > 1 requires an Inner that is
	// safe for concurrent Solve calls (the stateless built-ins brute,
	// scholz, liberty and anneal are; rl solvers carry scratch buffers
	// and are not).
	Workers int
}

// Wrap returns a decomposing wrapper around inner with sequential
// component solving.
func Wrap(inner solve.Solver) *Solver { return &Solver{Inner: inner} }

// Info reports what the decomposition did to one instance; the CLI
// surfaces it under -stats-json.
type Info struct {
	// OriginalVertices is the alive vertex count of the input.
	OriginalVertices int `json:"original_vertices"`
	// Eliminated is the number of vertices removed exactly by R0/R1/R2.
	Eliminated int `json:"eliminated_vertices"`
	// ResidualVertices is what was left for block solving.
	ResidualVertices int `json:"residual_vertices"`
	// Components is the number of connected components of the residual.
	Components int `json:"components"`
	// Blocks is the number of biconnected blocks across all components.
	Blocks int `json:"blocks"`
	// LargestBlock is the vertex count of the biggest block — the
	// largest subproblem the inner solver actually saw.
	LargestBlock int `json:"largest_block_vertices"`
	// CutVertices is the number of articulation vertices shared
	// between blocks.
	CutVertices int `json:"cut_vertices"`
}

// Name implements solve.Solver.
func (s *Solver) Name() string { return "decomp(" + s.Inner.Name() + ")" }

// Solve implements solve.Solver.
func (s *Solver) Solve(g *pbqp.Graph) solve.Result {
	return s.SolveCtx(context.Background(), g)
}

// SolveCtx implements solve.ContextSolver: the ctx budget is shared by
// every block solve (each one is delegated the context), so a deadline
// interrupts the pipeline wherever it currently is.
func (s *Solver) SolveCtx(ctx context.Context, g *pbqp.Graph) solve.Result {
	res, _ := s.SolveWithInfo(ctx, g)
	return res
}

// SolveWithInfo is SolveCtx plus the decomposition statistics.
func (s *Solver) SolveWithInfo(ctx context.Context, g *pbqp.Graph) (solve.Result, Info) {
	info := Info{OriginalVertices: g.AliveCount()}
	if ctx.Err() != nil {
		return solve.Result{Cost: cost.Inf, Truncated: true}, info
	}
	red := reduce.Apply(g)
	w := red.Graph
	info.Eliminated = red.Eliminated
	info.ResidualVertices = w.AliveCount()
	// One state per reduction step, matching the reduction solvers'
	// accounting, plus whatever the inner solver reports per block.
	states := int64(red.Eliminated)
	truncated := false
	sel := make(pbqp.Selection, g.NumVertices())
	if w.AliveCount() > 0 {
		csr := pbqp.NewCSR(w)
		sc := newScanner(csr)
		sc.run()
		info.Components = sc.numComps()
		info.Blocks = sc.numBlocks()
		for b := 0; b < sc.numBlocks(); b++ {
			if n := len(sc.block(b)); n > info.LargestBlock {
				info.LargestBlock = n
			}
		}
		for i := 0; i < csr.Len(); i++ {
			if sc.isCut[i] {
				info.CutVertices++
			}
		}
		outcomes := make([]compOutcome, sc.numComps())
		workers := s.Workers
		if workers > len(outcomes) {
			workers = len(outcomes)
		}
		if workers <= 1 {
			scratch := newPosScratch(csr.Len())
			for c := range outcomes {
				outcomes[c] = s.solveComponent(ctx, w, csr, sc, c, sel, scratch)
			}
		} else {
			// Components touch disjoint vertices: each goroutine writes
			// only its components' vector folds and selection slots, so
			// the shared graph and selection need no locks. Outcomes are
			// merged in component order below, keeping the result
			// deterministic whatever the scheduling.
			var next atomic.Int64
			var wg sync.WaitGroup
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					scratch := newPosScratch(csr.Len())
					for {
						c := int(next.Add(1)) - 1
						if c >= len(outcomes) {
							return
						}
						outcomes[c] = s.solveComponent(ctx, w, csr, sc, c, sel, scratch)
					}
				}()
			}
			wg.Wait()
		}
		feasible := true
		for _, oc := range outcomes {
			states += oc.states
			if oc.truncated {
				truncated = true
			}
			if !oc.feasible {
				feasible = false
			}
		}
		if !feasible {
			return solve.Result{Cost: cost.Inf, Truncated: truncated, States: states}, info
		}
	}
	full, ok := red.Expand(sel)
	if !ok {
		return solve.Result{Cost: cost.Inf, Truncated: truncated, States: states}, info
	}
	total := g.TotalCost(full)
	if total.IsInf() {
		return solve.Result{Cost: cost.Inf, Truncated: truncated, States: states}, info
	}
	return solve.Result{Selection: full, Cost: total, Feasible: true, Truncated: truncated, States: states}, info
}

type compOutcome struct {
	feasible  bool
	truncated bool
	states    int64
}

// posScratch maps CSR indices to block-local indices while a block
// subgraph is being built; entries are -1 between blocks. One per
// worker, reused across that worker's blocks.
type posScratch struct {
	pos []int32
}

func newPosScratch(n int) *posScratch {
	s := &posScratch{pos: make([]int32, n)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

// solveComponent runs the two sweeps over component c's blocks: a
// forward (post-order) sweep folding every non-root block into its
// anchor cut vertex and solving the root block outright, then a
// backward sweep propagating chosen colors down to each block's
// stored per-color selection. It writes only c's vertices of sel.
func (s *Solver) solveComponent(ctx context.Context, w *pbqp.Graph, csr *pbqp.CSR, sc *scanner, c int, sel pbqp.Selection, scratch *posScratch) compOutcome {
	lo, hi := sc.comp(c)
	m := w.M()
	oc := compOutcome{feasible: true}
	// tables[b-lo][a] is block b's local selection when its anchor is
	// pinned to color a; for the root block the single outright
	// solution sits at slot 0.
	tables := make([][]pbqp.Selection, hi-lo)
	for b := lo; b < hi; b++ {
		if ctx.Err() != nil {
			oc.feasible, oc.truncated = false, true
			return oc
		}
		verts := sc.block(b)
		if sc.isRoot[b] {
			res := s.solveBlock(ctx, w, csr, verts, -1, scratch)
			oc.states += res.States
			if res.Truncated {
				oc.truncated = true
			}
			if !res.Feasible {
				oc.feasible = false
				return oc
			}
			tables[b-lo] = []pbqp.Selection{res.Selection}
			continue
		}
		anchorID := csr.ID(int(verts[0]))
		cur := w.VertexCost(anchorID).Clone()
		newVec := cur.Clone()
		table := make([]pbqp.Selection, m)
		for a := 0; a < m; a++ {
			if cur[a].IsInf() {
				continue // newVec[a] is already infinite
			}
			res := s.solveBlock(ctx, w, csr, verts, a, scratch)
			oc.states += res.States
			if res.Truncated {
				oc.truncated = true
			}
			if !res.Feasible {
				if res.Truncated {
					// Cut short, not proven infeasible: give up on the
					// component rather than fold a wrong infinity.
					oc.feasible = false
					return oc
				}
				newVec[a] = cost.Inf
				continue
			}
			newVec[a] = cur[a].Add(res.Cost)
			table[a] = res.Selection
		}
		w.SetVertexCost(anchorID, newVec)
		tables[b-lo] = table
	}
	// Backward sweep: root first (it was emitted last), parents before
	// children, so every non-root block reads its anchor's color from
	// sel before assigning its interior.
	for b := hi - 1; b >= lo; b-- {
		verts := sc.block(b)
		if sc.isRoot[b] {
			rootSel := tables[b-lo][0]
			for i, v := range verts {
				sel[csr.ID(int(v))] = rootSel[i]
			}
			continue
		}
		t := tables[b-lo][sel[csr.ID(int(verts[0]))]]
		if t == nil {
			// Unreachable with a consistent inner solver: the parent
			// block saw an infinite folded entry for this color. Fail
			// closed rather than emit a bogus selection.
			oc.feasible = false
			return oc
		}
		for i, v := range verts {
			if i > 0 {
				sel[csr.ID(int(v))] = t[i]
			}
		}
	}
	return oc
}

// solveBlock extracts block verts (CSR indices, anchor first) as a
// standalone graph and solves it with the inner solver under ctx. pin
// ≥ 0 pins the anchor to that color by replacing its vector with "0 at
// pin, ∞ elsewhere" — excluding the anchor's own (possibly already
// folded) cost, which stays in the residual for the parent block. The
// block's edges are exactly the residual edges between its vertices:
// two biconnected components share at most one vertex, so no edge
// between two block vertices can belong to another block.
func (s *Solver) solveBlock(ctx context.Context, w *pbqp.Graph, csr *pbqp.CSR, verts []int32, pin int, scratch *posScratch) solve.Result {
	m := w.M()
	h := pbqp.New(len(verts), m)
	pos := scratch.pos
	for i, v := range verts {
		pos[v] = int32(i)
	}
	for i, v := range verts {
		if i == 0 && pin >= 0 {
			pv := cost.NewInfVector(m)
			pv[pin] = 0
			h.SetVertexCost(0, pv)
		} else {
			h.SetVertexCost(i, w.VertexCost(csr.ID(int(v))))
		}
		nbrs, mats := csr.Row(int(v))
		for k, nb := range nbrs {
			if nb <= v || pos[nb] < 0 {
				continue
			}
			h.SetEdgeCost(i, int(pos[nb]), mats[k])
		}
	}
	for _, v := range verts {
		pos[v] = -1
	}
	return solve.SolveCtx(ctx, s.Inner, h)
}
