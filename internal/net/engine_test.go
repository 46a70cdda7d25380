package net

import (
	"math"
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/tensor"
)

func zeroInfView(seed int64, n, m int) gcn.View {
	rng := rand.New(rand.NewSource(seed))
	g, _ := randgraph.ZeroInf(rng, randgraph.ZeroInfConfig{
		N: n, M: m, PEdge: 0.4, HardRatio: 0.4, PEdgeInf: 0.3,
	})
	return gcn.NewGraphView(g)
}

// vecView is a minimal edgeless View whose vertex-0 cost vector the
// test controls exactly.
type vecView struct {
	m    int
	vecs []cost.Vector
}

func (v *vecView) N() int                   { return len(v.vecs) }
func (v *vecView) M() int                   { return v.m }
func (v *vecView) Vec(i int) cost.Vector    { return v.vecs[i] }
func (v *vecView) Nbrs(int) []int           { return nil }
func (v *vecView) Mat(_, _ int) *tensor.Mat { return nil }

// TestPoolMeanSingleDivision is the golden test for the pooling fix:
// the mean channel must be the per-element sum scaled by exactly one
// division — not n per-term divisions, which cost n−1 extra roundings
// (and divides) per element and disagree with the reference in the
// last bits.
func TestPoolMeanSingleDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m := 5
	view := &vecView{m: m, vecs: []cost.Vector{cost.NewVector(m)}}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(9)
		h := make([]tensor.Vec, n)
		for v := range h {
			h[v] = make(tensor.Vec, m)
			for i := range h[v] {
				h[v][i] = rng.NormFloat64()
			}
		}
		f := pool(view, h)
		for i := 0; i < m; i++ {
			sum := 0.0
			for v := 0; v < n; v++ {
				sum += h[v][i]
			}
			want := sum * (1 / float64(n))
			if math.Float64bits(f[m+i]) != math.Float64bits(want) {
				t.Fatalf("trial %d col %d: pooled mean %x, want sum-then-scale %x",
					trial, i, math.Float64bits(f[m+i]), math.Float64bits(want))
			}
		}
	}
}

// TestEvaluateSaturatedVertex is the all-infinite-vertex regression:
// a vertex with no finite color must produce the all-zero prior and a
// finite value, not NaN probabilities.
func TestEvaluateSaturatedVertex(t *testing.T) {
	m := 4
	view := &vecView{m: m, vecs: []cost.Vector{
		cost.NewInfVector(m), // next-to-color vertex: fully saturated
		cost.NewVector(m),
	}}
	p := New(Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 82})
	prior, value := forwardEvaluate(p, view)
	for i, pr := range prior {
		if pr != 0 || math.Signbit(pr) {
			t.Errorf("prior[%d] = %v, want +0", i, pr)
		}
	}
	if math.IsNaN(value) {
		t.Error("value is NaN")
	}
	// the engine must agree
	got, v := p.Evaluate(view)
	if math.Float64bits(v) != math.Float64bits(value) {
		t.Errorf("Evaluate value %v, want %v", v, value)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(prior[i]) {
			t.Errorf("Evaluate prior[%d] mismatch", i)
		}
	}
}

func engineTestViews(m int) []gcn.View {
	views := []gcn.View{
		testView(91, 1, m),
		testView(92, 3, m),
		testView(93, 6, m),
		testView(94, 9, m),
		zeroInfView(95, 12, m),
		zeroInfView(96, 17, m),
		testView(97, 4, m),
	}
	return views
}

// TestEvaluateBatchBitIdenticalShuffled is the engine's property test:
// for single views and shuffled batches of mixed views, every (prior,
// value) pair out of the engine equals Forward + Mask + Softmax bit
// for bit, independent of batch composition and of cache warmth.
func TestEvaluateBatchBitIdenticalShuffled(t *testing.T) {
	const m = 5
	p := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 98})
	views := engineTestViews(m)

	wantPrior := make([]tensor.Vec, len(views))
	wantValue := make([]float64, len(views))
	for i, v := range views {
		wantPrior[i], wantValue[i] = forwardEvaluate(p, v)
	}
	for j, v := range views {
		prior, value := p.Evaluate(v)
		if math.Float64bits(value) != math.Float64bits(wantValue[j]) {
			t.Fatalf("view %d: Evaluate value %x, want %x",
				j, math.Float64bits(value), math.Float64bits(wantValue[j]))
		}
		for c := range prior {
			if math.Float64bits(prior[c]) != math.Float64bits(wantPrior[j][c]) {
				t.Fatalf("view %d color %d: Evaluate prior %x, want %x",
					j, c, math.Float64bits(prior[c]), math.Float64bits(wantPrior[j][c]))
			}
		}
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		idx := rng.Perm(len(views))
		sz := 1 + rng.Intn(len(views))
		idx = idx[:sz]
		batch := make([]gcn.View, sz)
		for i, j := range idx {
			batch[i] = views[j]
		}
		priors, values := p.EvaluateBatch(batch)
		for i, j := range idx {
			if math.Float64bits(values[i]) != math.Float64bits(wantValue[j]) {
				t.Fatalf("trial %d view %d: value %x, want %x",
					trial, j, math.Float64bits(values[i]), math.Float64bits(wantValue[j]))
			}
			for c := range priors[i] {
				if math.Float64bits(priors[i][c]) != math.Float64bits(wantPrior[j][c]) {
					t.Fatalf("trial %d view %d color %d: prior %x, want %x",
						trial, j, c, math.Float64bits(priors[i][c]), math.Float64bits(wantPrior[j][c]))
				}
			}
		}
	}
}

// TestEvaluateIntoAllocFree: the single-view engine path allocates
// nothing once the scratch is warm.
func TestEvaluateIntoAllocFree(t *testing.T) {
	const m = 5
	p := New(Config{M: m, GCNLayers: 2, Hidden: 16, Blocks: 1, Seed: 100})
	view := zeroInfView(101, 14, m)
	prior := make(tensor.Vec, m)
	p.EvaluateInto(view, prior) // warm scratch and caches
	if n := testing.AllocsPerRun(50, func() {
		p.EvaluateInto(view, prior)
	}); n != 0 {
		t.Fatalf("steady-state EvaluateInto allocates %.1f times per run", n)
	}
}

// TestEvaluateEngineAfterWeightChange: training toggles and weight
// loads must invalidate the engine's weight-derived caches.
func TestEvaluateEngineAfterWeightChange(t *testing.T) {
	const m = 4
	p := New(Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 102})
	q := New(Config{M: m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 103})
	view := testView(104, 6, m)

	prior := make(tensor.Vec, m)
	p.EvaluateInto(view, prior) // warm caches against p's initial weights

	p.CopyFrom(q)
	wantPrior, wantValue := forwardEvaluate(q, view)
	value := p.EvaluateInto(view, prior)
	if math.Float64bits(value) != math.Float64bits(wantValue) {
		t.Fatalf("value %x, want %x after CopyFrom", math.Float64bits(value), math.Float64bits(wantValue))
	}
	for i := range prior {
		if math.Float64bits(prior[i]) != math.Float64bits(wantPrior[i]) {
			t.Fatalf("prior[%d] stale after CopyFrom", i)
		}
	}
}
