package mcts

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/net"
	"pbqprl/internal/nn"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

// forwardEval evaluates through the network's training path — Forward,
// then Mask and Softmax — the reference the read-only engine behind
// (*net.PBQPNet).Evaluate is pinned against.
type forwardEval struct{ p *net.PBQPNet }

func (e forwardEval) Evaluate(view gcn.View) (tensor.Vec, float64) {
	logits, value := e.p.Forward(view)
	return nn.Softmax(logits, net.Mask(view)), value
}

// compareTrees asserts node-for-node, bit-for-bit equality of the two
// trees' search statistics.
func compareTrees(t *testing.T, want, got *node, path string) {
	t.Helper()
	if want.expanded != got.expanded || want.terminal != got.terminal || want.deadEnd != got.deadEnd {
		t.Fatalf("%s: flags differ: want (%v %v %v), got (%v %v %v)", path,
			want.expanded, want.terminal, want.deadEnd, got.expanded, got.terminal, got.deadEnd)
	}
	if !want.expanded {
		return
	}
	if math.Float64bits(want.value) != math.Float64bits(got.value) {
		t.Fatalf("%s: value %x != %x", path, math.Float64bits(got.value), math.Float64bits(want.value))
	}
	if len(want.prior) != len(got.prior) {
		t.Fatalf("%s: prior lengths differ", path)
	}
	for a := range want.prior {
		if math.Float64bits(want.prior[a]) != math.Float64bits(got.prior[a]) {
			t.Fatalf("%s: prior[%d] %x != %x", path, a, math.Float64bits(got.prior[a]), math.Float64bits(want.prior[a]))
		}
	}
	for a := range want.n {
		if want.n[a] != got.n[a] {
			t.Fatalf("%s: n[%d] = %d, want %d", path, a, got.n[a], want.n[a])
		}
		if math.Float64bits(want.q[a]) != math.Float64bits(got.q[a]) {
			t.Fatalf("%s: q[%d] %x != %x", path, a, math.Float64bits(got.q[a]), math.Float64bits(want.q[a]))
		}
	}
	for a := range want.children {
		wc, gc := want.children[a], got.children[a]
		switch {
		case wc == nil && gc == nil:
		case wc == nil || gc == nil:
			t.Fatalf("%s: child %d exists in only one tree", path, a)
		default:
			compareTrees(t, wc, gc, path+"/"+string(rune('0'+a)))
		}
	}
}

func randomTrapGame(seed int64) (*game.State, int) {
	rng := rand.New(rand.NewSource(seed))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: 14, M: 4, PEdge: 0.4, HardRatio: 0.5, PEdgeInf: 0.4,
	})
	order := rng.Perm(14)
	return game.New(g, order), 4
}

// TestSearchWithNetEngineMatchesForward pins the search end to end on
// the real network: a search evaluating through the read-only engine
// (*net.PBQPNet's Evaluate) builds the same tree, bit for bit, as one
// evaluating through Forward + Mask + Softmax.
func TestSearchWithNetEngineMatchesForward(t *testing.T) {
	const k = 120
	n := net.New(net.Config{M: 4, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 303})

	st, m := randomTrapGame(302)
	ref := New(forwardEval{n.Clone()}, m, Config{})
	ref.Run(st, k)

	st2, _ := randomTrapGame(302)
	tree := New(n, m, Config{})
	tree.Run(st2, k)

	if ref.Nodes() != tree.Nodes() {
		t.Fatalf("nodes %d, want %d", tree.Nodes(), ref.Nodes())
	}
	compareTrees(t, ref.root, tree.root, "root")
	refPi, pi := ref.Policy(), tree.Policy()
	for a := range refPi {
		if math.Float64bits(refPi[a]) != math.Float64bits(pi[a]) {
			t.Fatalf("policy[%d] differs", a)
		}
	}
}
