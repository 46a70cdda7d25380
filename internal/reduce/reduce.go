// Package reduce implements the PBQP reductions of Scholz and Eckstein
// and is the one elimination engine of the repository. Apply runs the
// exact reductions R0, R1 and R2 alone, as a standalone,
// solver-agnostic preprocessing pass: it never applies the lossy RN
// heuristic, so the reduced problem is cost-equivalent to the original,
// any solver — exact, enumeration, or Deep-RL — can run on the (often
// much smaller) remainder, and the removed vertices are recolored
// optimally afterwards. Eliminate runs the same loop to the end, handing
// every vertex the exact rules cannot take to a caller-supplied RN rule;
// internal/solve/scholz is that loop plus Scholz's RN heuristic.
//
// This mirrors production PBQP allocators, which always run the exact
// reductions before anything expensive.
package reduce

import (
	"context"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve"
)

// Reduction is the result of reducing a PBQP graph.
type Reduction struct {
	// Graph is the reduced remainder: after Apply every alive vertex
	// has degree ≥ 3; after Eliminate it is empty. It may be empty, in
	// which case Expand solves the whole problem by itself.
	Graph *pbqp.Graph
	// Eliminated is the number of vertices removed, by R0/R1/R2 or by
	// Eliminate's RN rule.
	Eliminated int
	// Truncated reports that Eliminate's context fired, so the
	// remaining vertices went to the RN rule without the exact ones.
	Truncated bool
	stack     []record
}

type kind int

const (
	r0 kind = iota
	r1
	r2
	rN
)

type record struct {
	kind  kind
	u     int
	color int // rN: the color chosen at elimination
	vec   cost.Vector
	nbrs  []int
	mats  []*cost.Matrix
}

// Apply exhaustively applies R0/R1/R2 to a copy of g and returns the
// reduction. The input graph is not mutated.
func Apply(g *pbqp.Graph) *Reduction {
	return Eliminate(context.Background(), g, nil)
}

// Eliminate removes the vertices of a copy of g one at a time, always
// the (degree, id)-lexicographic minimum among the alive ones: R0, R1
// or R2 for degree ≤ 2, otherwise rn, which must color u in w (removing
// it, as pbqp.Graph.ColorVertex does) and return the color. With a nil
// rn it stops at the first vertex the exact rules cannot take and
// leaves the rest in Graph. It polls ctx every solve.CheckInterval
// pops; once ctx is done every remaining vertex goes to rn, whatever
// its degree, and the reduction is marked Truncated. The input graph is
// not mutated.
//
// The order is the one a full min-degree scan per step would produce,
// but maintained by a lazy worklist heap seeded with every alive
// vertex, so eliminating n vertices costs O((n + pushes) log n) instead
// of O(n²). The equivalence rests on degrees never increasing (R0
// touches nothing, R1 and RN drop each neighbor by one, R2 drops y and
// z by one or keeps them level), so a popped entry is stale exactly
// when its recorded degree or liveness no longer matches and a fresh
// entry was pushed at the moment of the change.
func Eliminate(ctx context.Context, g *pbqp.Graph, rn func(w *pbqp.Graph, u int) int) *Reduction {
	w := g.Clone()
	red := &Reduction{Graph: w, Truncated: ctx.Err() != nil}
	var h worklist
	for u := 0; u < w.NumVertices(); u++ {
		if w.Alive(u) {
			h.push(w.Degree(u), u)
		}
	}
	for pops := 1; len(h) > 0; pops++ {
		d, u := h.pop()
		if !red.Truncated && pops%solve.CheckInterval == 0 && ctx.Err() != nil {
			red.Truncated = true
		}
		if !w.Alive(u) || w.Degree(u) != d {
			continue // stale: the vertex was eliminated or re-pushed at a lower degree
		}
		var rec record
		switch {
		case d > 2 || red.Truncated:
			if rn == nil {
				return red
			}
			rec = record{kind: rN, u: u, nbrs: w.Neighbors(u)} // read before rn detaches u
			rec.color = rn(w, u)
		case d == 0:
			rec = record{kind: r0, u: u, vec: w.VertexCost(u).Clone()}
			w.RemoveVertex(u)
		case d == 1:
			rec = reduceR1(w, u)
		default:
			rec = reduceR2(w, u)
		}
		red.Eliminated++
		red.stack = append(red.stack, rec)
		for _, v := range rec.nbrs {
			h.push(w.Degree(v), v)
		}
	}
	return red
}

// worklist is a binary min-heap of (degree, vertex) pairs packed into
// one int64 key each, so the lexicographic (degree, id) minimum is the
// plain integer minimum. Entries are never updated in place: a vertex
// whose degree drops is pushed again and the stale entry is skipped on
// pop.
type worklist []int64

func (h *worklist) push(deg, u int) {
	*h = append(*h, int64(deg)<<32|int64(u))
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *worklist) pop() (deg, u int) {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l] < s[min] {
			min = l
		}
		if r < len(s) && s[r] < s[min] {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return int(top >> 32), int(top & 0xffffffff)
}

func reduceR1(g *pbqp.Graph, u int) record {
	y := g.Neighbors(u)[0]
	m := g.EdgeCost(u, y).Clone()
	vec := g.VertexCost(u).Clone()
	delta := make(cost.Vector, g.M())
	for j := 0; j < g.M(); j++ {
		best := cost.Inf
		for i := 0; i < g.M(); i++ {
			if c := vec[i].Add(m.At(i, j)); c.Less(best) {
				best = c
			}
		}
		delta[j] = best
	}
	g.AddToVertexCost(y, delta)
	g.RemoveVertex(u)
	return record{kind: r1, u: u, vec: vec, nbrs: []int{y}, mats: []*cost.Matrix{m}}
}

func reduceR2(g *pbqp.Graph, u int) record {
	ns := g.Neighbors(u)
	y, z := ns[0], ns[1]
	my := g.EdgeCost(u, y).Clone()
	mz := g.EdgeCost(u, z).Clone()
	vec := g.VertexCost(u).Clone()
	m := g.M()
	delta := cost.NewMatrix(m, m)
	for jy := 0; jy < m; jy++ {
		for jz := 0; jz < m; jz++ {
			best := cost.Inf
			for i := 0; i < m; i++ {
				if c := vec[i].Add(my.At(i, jy)).Add(mz.At(i, jz)); c.Less(best) {
					best = c
				}
			}
			delta.Set(jy, jz, best)
		}
	}
	g.RemoveVertex(u)
	g.AddEdgeCost(y, z, delta)
	if g.EdgeCost(y, z).IsZero() {
		g.RemoveEdge(y, z)
	}
	return record{kind: r2, u: u, vec: vec, nbrs: []int{y, z}, mats: []*cost.Matrix{my, mz}}
}

// Expand completes a selection of the reduced remainder into a full
// selection of the original graph: an RN-eliminated vertex gets the
// color chosen at elimination, every other eliminated vertex the
// optimal color given its (by then colored) former neighbors. sel must
// assign every alive vertex of the reduced graph; eliminated entries
// may hold anything. Every entry of the result is filled in; where an
// eliminated vertex has no finite color it gets color 0 and Expand
// reports false (the problem is infeasible regardless of sel).
func (r *Reduction) Expand(sel pbqp.Selection) (pbqp.Selection, bool) {
	out := sel.Clone()
	ok := true
	for i := len(r.stack) - 1; i >= 0; i-- {
		rec := r.stack[i]
		if rec.kind == rN {
			out[rec.u] = rec.color
			continue
		}
		best, bestCost := -1, cost.Inf
		for c := range rec.vec {
			v := rec.vec[c]
			for k, nb := range rec.nbrs {
				v = v.Add(rec.mats[k].At(c, out[nb]))
			}
			if !v.IsInf() && (best == -1 || v.Less(bestCost)) {
				best, bestCost = c, v
			}
		}
		if best == -1 {
			best, ok = 0, false
		}
		out[rec.u] = best
	}
	return out, ok
}
