package rl

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/mcts"
	"pbqprl/internal/net"
	"pbqprl/internal/nn"
	"pbqprl/internal/pbqp"
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

// digestEval passes evaluations through and folds the bits of every
// prior and value it returns into one FNV-1a digest. Solve results are
// too coarse to see a last-bit change (one ulp of value rarely flips a
// visit-count argmax); the digest sees every bit of every evaluation.
type digestEval struct {
	inner mcts.Evaluator
	h     hash.Hash64
	buf   []byte
}

func newDigestEval(inner mcts.Evaluator) *digestEval {
	return &digestEval{inner: inner, h: fnv.New64a()}
}

func (e *digestEval) Evaluate(view gcn.View) (tensor.Vec, float64) {
	prior, value := e.inner.Evaluate(view)
	e.buf = e.buf[:0]
	for _, p := range prior {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(p))
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(value))
	e.h.Write(e.buf)
	return prior, value
}

// engineTestGraphs returns the first suite programs of the ATE suite
// plus fresh synthetic ATE programs of 20–99 vregs, generated as the
// fleet benchmark's ate-rl workload generates them.
func engineTestGraphs(t *testing.T, suite, fresh int) []*pbqp.Graph {
	t.Helper()
	var graphs []*pbqp.Graph
	for _, b := range ate.Suite()[:suite] {
		graphs = append(graphs, b.Graph)
	}
	mach := ate.DefaultMachine()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < fresh; i++ {
		prog, _ := ate.Generate(mach, ate.GenConfig{
			Name:      fmt.Sprintf("fresh%d", i),
			NumVRegs:  20 + rng.Intn(80),
			PairRatio: 0.3,
			HardRatio: 0.4,
			MaxLive:   8,
			Seed:      rng.Int63(),
		})
		g, err := ate.BuildPBQP(prog)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// TestEngineSolveMatchesForward pins whole solves on the read-only
// engine: rl and rl-bt, configured as the service's rl stages (K=50,
// decreasing liberty, MCTS re-invoked after dead ends, a 5000-node
// budget) with an untrained network cloned per solve, return exactly
// the result — selection, cost, feasibility, state count — and the same
// bits for every evaluation as the same solve evaluating through
// Forward + Mask + Softmax. The whole suite
// plus 20 fresh programs takes about a minute on the Forward side
// alone, so -short and race builds (single goroutine: the race
// detector adds nothing here) pin a smaller set.
func TestEngineSolveMatchesForward(t *testing.T) {
	suite, fresh := 10, 20
	if testing.Short() || raceEnabled {
		suite, fresh = 3, 3
	}
	graphs := engineTestGraphs(t, suite, fresh)
	base := net.New(net.Config{M: 13, GCNLayers: 1, Hidden: 24, Blocks: 1, Seed: 7})
	for _, backtrack := range []bool{false, true} {
		cfg := Config{
			K:            50,
			Order:        game.OrderDecLiberty,
			Backtrack:    backtrack,
			ReinvokeMCTS: true,
			MaxNodes:     5000,
		}
		for i, g := range graphs {
			ref, eng := newDigestEval(forwardEval{base.Clone()}), newDigestEval(base.Clone())
			want := (&Solver{Net: ref, Cfg: cfg}).Solve(g)
			got := (&Solver{Net: eng, Cfg: cfg}).Solve(g)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("backtrack=%v graph %d (%d vertices): engine result %+v, want %+v",
					backtrack, i, g.NumVertices(), got, want)
			}
			if eng.h.Sum64() != ref.h.Sum64() {
				t.Fatalf("backtrack=%v graph %d (%d vertices): evaluation bits differ from Forward's",
					backtrack, i, g.NumVertices())
			}
		}
	}
}
