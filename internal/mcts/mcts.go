// Package mcts implements the paper's Monte-Carlo tree search planner
// (Section IV-C, Algorithm 1): PUCT selection with the upper confidence
// bound of Equation 2, expansion of one leaf per simulation, a neural
// roll-out (the DNN evaluates new leaves; terminal states are scored by
// the game), and back-propagation of the leaf value along the selected
// path. The visit-count policy of Equation 3 is read off the root after
// k simulations, and the tree is reused across moves via Advance (and
// across take-backs via Back, which the backtracking solver uses).
package mcts

import (
	"context"
	"math"

	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// Evaluator supplies priors and values for non-terminal leaves; it is
// implemented by *net.PBQPNet.
type Evaluator interface {
	Evaluate(view gcn.View) (prior tensor.Vec, value float64)
}

// BatchEvaluator is an Evaluator that can also serve many views in one
// pass, per-view bit-identical to its Evaluate (as *net.PBQPNet is).
// The search never batches — every simulation evaluates its one leaf
// through Evaluate — so nothing here consumes the interface. It stays
// because the fleet benchmark's traced evaluator wrapper still
// forwards it and asserts that the network implements it; it can go
// once that wrapper does.
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(views []gcn.View) (priors []tensor.Vec, values []float64)
}

// Config tunes the search.
type Config struct {
	// CPuct is the exploration constant of Equation 2 (default 1.25).
	CPuct float64
	// Eps is the small constant under the square root of Equation 2
	// that lets the prior drive the very first selection (default 1e-3).
	Eps float64
	// HeuristicValue replaces the DNN value at leaf evaluation with
	// the game's lower-bound heuristic (see game.State.HeuristicValue);
	// the DNN still supplies the priors. Used for minimization
	// inference, where games are far deeper than the simulation budget
	// and a weakly trained V-Net provides no usable signal.
	HeuristicValue bool
	// RetainParents keeps the abandoned parent (and its sibling
	// subtrees) reachable across Advance so that Back can walk the
	// chain upward — required by the backtracking solver, which
	// re-roots at the parent after a dead end. Off by default: Advance
	// then detaches the new root, releasing everything above and beside
	// it to the garbage collector, so per-episode memory is bounded by
	// the live subtree instead of growing with game depth.
	RetainParents bool
}

func (c Config) withDefaults() Config {
	//pbqpvet:ignore floatcmp zero is the unset-config sentinel, assigned by the caller and never computed
	if c.CPuct == 0 {
		c.CPuct = 1.25
	}
	//pbqpvet:ignore floatcmp zero is the unset-config sentinel, assigned by the caller and never computed
	if c.Eps == 0 {
		c.Eps = 1e-3
	}
	return c
}

// node is one state in the partial game tree. Edge statistics (Q, N,
// prior) are stored on the parent, indexed by action.
type node struct {
	parent   *node
	expanded bool
	terminal bool
	deadEnd  bool    // terminal because the reduced graph is stuck
	value    float64 // v̂ from the DNN, or the terminal game value
	prior    tensor.Vec
	legal    []bool
	disabled []bool // actions masked by the backtracking solver
	n        []int
	q        []float64
	children []*node
}

// actionOpen reports whether action a of nd is selectable: legal, not
// masked, and not leading to a child already known to be a dead end.
// (The graph manager detects dead ends on transition, so the planner
// never walks into one twice.)
func (nd *node) actionOpen(a int) bool {
	if !nd.legal[a] || nd.disabled[a] {
		return false
	}
	if c := nd.children[a]; c != nil && c.expanded && c.deadEnd {
		return false
	}
	return true
}

// Tree is an MCTS instance bound to one game.
type Tree struct {
	cfg   Config
	eval  Evaluator
	root  *node
	m     int
	nodes int64
}

// New creates an empty tree for a game with m colors.
func New(eval Evaluator, m int, cfg Config) *Tree {
	return &Tree{cfg: cfg.withDefaults(), eval: eval, root: &node{}, m: m}
}

// Nodes returns the total number of nodes (states) generated in the
// game tree so far — the paper's Figure 6 metric.
func (t *Tree) Nodes() int64 { return t.nodes }

// Run performs k simulations (Algorithm 1) from the current root, which
// must correspond to state s. The state is mutated during simulation
// and restored before Run returns.
func (t *Tree) Run(s *game.State, k int) {
	t.RunCtx(context.Background(), s, k)
}

// RunCtx is Run under a context: the context is polled before every
// simulation, so cancellation lands within one simulation's latency
// (one root-to-leaf descent plus one evaluator call). It returns the
// number of simulations actually performed; the tree and state are
// always left consistent, and a cut run simply leaves less-visited
// root statistics.
func (t *Tree) RunCtx(ctx context.Context, s *game.State, k int) int {
	for i := 0; i < k; i++ {
		if ctx.Err() != nil {
			return i
		}
		t.simulate(s, t.root)
	}
	return k
}

// simulate is Algorithm 1: descend by UCB to an undiscovered leaf,
// expand and evaluate it, and back-propagate its value. It returns the
// value of the newly evaluated (or terminal) node from the perspective
// of the single player.
func (t *Tree) simulate(s *game.State, nd *node) float64 {
	if !nd.expanded {
		t.expand(s, nd)
		return nd.value
	}
	if nd.terminal {
		return nd.value
	}
	a := t.selectAction(nd)
	if a < 0 {
		// Every child is a known dead end (or masked/illegal), so the
		// node itself is exhausted. Mark it terminal so actionOpen
		// prunes it at the parent; without the mark, every later
		// simulation would re-descend into the spent subtree and burn
		// its share of the k-budget without ever expanding a node.
		nd.terminal = true
		nd.deadEnd = true
		nd.value = -1
		return -1
	}
	s.Play(a)
	child := nd.children[a]
	if child == nil {
		child = &node{parent: nd}
		nd.children[a] = child
	}
	v := t.simulate(s, child)
	s.Undo()
	nd.q[a] = (float64(nd.n[a])*nd.q[a] + v) / float64(nd.n[a]+1)
	nd.n[a]++
	return v
}

// expand appends nd to the tree: terminal states take the game result,
// other states are evaluated by the DNN (the roll-out phase).
func (t *Tree) expand(s *game.State, nd *node) {
	t.nodes++
	nd.expanded = true
	if s.Done() || s.DeadEnd() {
		nd.terminal = true
		nd.deadEnd = s.DeadEnd()
		nd.value = s.TerminalValue()
		return
	}
	prior, value := t.eval.Evaluate(s.View())
	if t.cfg.HeuristicValue {
		value = s.HeuristicValue()
	}
	nd.prior = prior
	nd.value = value
	nd.legal = s.LegalMask()
	nd.disabled = make([]bool, t.m)
	nd.n = make([]int, t.m)
	nd.q = make([]float64, t.m)
	nd.children = make([]*node, t.m)
}

// selectAction returns the legal, enabled action maximizing Equation 2,
// or -1 if none remains.
func (t *Tree) selectAction(nd *node) int {
	total := 0
	for _, n := range nd.n {
		total += n
	}
	sqrtTotal := math.Sqrt(t.cfg.Eps + float64(total))
	best, bestU := -1, math.Inf(-1)
	for a := 0; a < t.m; a++ {
		if !nd.actionOpen(a) {
			continue
		}
		u := nd.q[a] + t.cfg.CPuct*nd.prior[a]*sqrtTotal/float64(1+nd.n[a])
		if u > bestU {
			best, bestU = a, u
		}
	}
	return best
}

// Policy returns π(a|s_root) of Equation 3: root visit counts normalized
// over legal, enabled actions. If no simulations reached any child it
// falls back to the prior. The root must be expanded (call Run first).
func (t *Tree) Policy() tensor.Vec {
	nd := t.root
	pi := make(tensor.Vec, t.m)
	if !nd.expanded || nd.terminal {
		return pi
	}
	total := 0.0
	for a := 0; a < t.m; a++ {
		if nd.actionOpen(a) {
			pi[a] = float64(nd.n[a])
			total += pi[a]
		}
	}
	//pbqpvet:ignore floatcmp visit weights are non-negative; an exactly-zero sum means no visits at all
	if total == 0 {
		for a := 0; a < t.m; a++ {
			if nd.actionOpen(a) {
				pi[a] = nd.prior[a]
				total += pi[a]
			}
		}
	}
	if total > 0 {
		for a := range pi {
			pi[a] /= total
		}
	}
	return pi
}

// RootValue returns the DNN value estimate v̂ of the root.
func (t *Tree) RootValue() float64 { return t.root.value }

// RootPrior returns the DNN prior p̂(·|s_root); it aliases tree storage.
func (t *Tree) RootPrior() tensor.Vec { return t.root.prior }

// RootExpanded reports whether the root has been evaluated.
func (t *Tree) RootExpanded() bool { return t.root.expanded }

// Advance moves the root to the child reached by action a, reusing the
// subtree and its statistics (the caller plays a on its state). Unless
// Config.RetainParents is set, the abandoned parent and every sibling
// subtree are detached so the garbage collector can reclaim them.
func (t *Tree) Advance(a int) {
	nd := t.root
	if !nd.expanded || nd.terminal {
		//pbqpvet:ignore panicfree documented contract: Advance is only legal on an expanded non-terminal root
		panic("mcts: Advance on unexpanded or terminal root")
	}
	child := nd.children[a]
	if child == nil {
		child = &node{parent: nd}
		nd.children[a] = child
	}
	if !t.cfg.RetainParents {
		child.parent = nil
		nd.children = nil
	}
	t.root = child
}

// Back moves the root to its parent (the caller undoes the action on
// its state). It panics at the tree root, or whenever the parent chain
// was not retained (see Config.RetainParents).
func (t *Tree) Back() {
	if t.root.parent == nil {
		//pbqpvet:ignore panicfree documented contract: Back requires Config.RetainParents, enforced by the rl solver
		panic("mcts: Back at tree root (backtracking requires Config.RetainParents)")
	}
	t.root = t.root.parent
}

// DisableRootAction masks action a at the root so that neither
// simulation nor Policy considers it again — the backtracking solver's
// "that coloring led to a dead end" marker.
func (t *Tree) DisableRootAction(a int) {
	if t.root.disabled == nil {
		t.root.disabled = make([]bool, t.m)
	}
	t.root.disabled[a] = true
}

// RootHasMove reports whether any legal, enabled action remains at the
// (expanded) root.
func (t *Tree) RootHasMove() bool {
	nd := t.root
	if !nd.expanded || nd.terminal {
		return false
	}
	for a := 0; a < t.m; a++ {
		if nd.actionOpen(a) {
			return true
		}
	}
	return false
}
