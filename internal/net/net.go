// Package net assembles the paper's neural network f_θ (Section IV-D):
// GCN layers produce the graph embedding, which is pooled to a fixed-size
// feature vector, passed through a residual (ResNet-style) torso with
// batch normalization, and split into two heads — the P-Net (a
// fully-connected layer feeding a softmax over the m colors) and the
// V-Net (a fully-connected layer feeding tanh).
//
// The paper concatenates all n per-vertex embeddings into an m×n matrix
// before the ResNet; n varies per state, which a fixed fully-connected
// torso cannot consume, so this implementation pools instead: the
// embedding of the next vertex to color, the mean embedding of the
// remaining graph, and two scalar summaries (graph size, liberty of the
// next vertex). See DESIGN.md for the rationale.
//
// Convention: in every View passed to this package, active vertex 0 is
// the next vertex to color (reduced states always expose the uncolored
// suffix in coloring order).
package net

import (
	"bytes"
	"io"
	"math/rand"

	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

// Config sizes a PBQPNet.
type Config struct {
	// M is the color count (register count, plus one if spill is an
	// option); it fixes the GCN width and the policy head size.
	M int
	// GCNLayers is the number of message-passing layers (default 3).
	GCNLayers int
	// Hidden is the torso width (default 64).
	Hidden int
	// Blocks is the number of residual torso blocks (default 2).
	Blocks int
	// Seed initializes the weights deterministically.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.GCNLayers == 0 {
		c.GCNLayers = 3
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Blocks == 0 {
		c.Blocks = 2
	}
	return c
}

// PBQPNet is the combined policy/value network.
type PBQPNet struct {
	cfg    Config
	gcn    *gcn.GCN
	torso  nn.Module
	policy nn.Module
	value  nn.Module

	// caches from the most recent Forward
	lastView   gcn.View
	lastPooled tensor.Vec
	lastH      []tensor.Vec
	lastN      int

	// eng is the lazily built read-only inference engine (engine.go).
	// Like the Forward caches it makes the net single-goroutine.
	eng *engine
}

// New builds a PBQPNet from cfg.
func New(cfg Config) *PBQPNet {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := cfg.M
	in := 2*m + 2
	block := func() nn.Module {
		return nn.NewResidual(nn.NewSequential(
			nn.NewDense(rng, cfg.Hidden, cfg.Hidden), nn.NewBatchNorm(cfg.Hidden), &nn.ReLU{},
			nn.NewDense(rng, cfg.Hidden, cfg.Hidden), nn.NewBatchNorm(cfg.Hidden),
		))
	}
	torso := []nn.Module{nn.NewDense(rng, in, cfg.Hidden), nn.NewBatchNorm(cfg.Hidden), &nn.ReLU{}}
	for i := 0; i < cfg.Blocks; i++ {
		torso = append(torso, block(), &nn.ReLU{})
	}
	return &PBQPNet{
		cfg:    cfg,
		gcn:    gcn.New(rng, m, cfg.GCNLayers),
		torso:  nn.NewSequential(torso...),
		policy: nn.NewDense(rng, cfg.Hidden, m),
		value:  nn.NewSequential(nn.NewDense(rng, cfg.Hidden, 1), &nn.Tanh{}),
	}
}

// Cfg returns the configuration the network was built with.
func (p *PBQPNet) Cfg() Config { return p.cfg }

// SetTraining switches batch-normalization statistics updates. The
// toggle brackets every weight update (selfplay trains between search
// phases), so it doubles as the engine's weight-change signal.
func (p *PBQPNet) SetTraining(training bool) {
	nn.SetTraining(p.torso, training)
	nn.SetTraining(p.policy, training)
	nn.SetTraining(p.value, training)
	p.invalidateEngine()
}

// Forward runs the network on view (active vertex 0 is the next to
// color) and returns the raw policy logits and the value in (-1, 1).
func (p *PBQPNet) Forward(view gcn.View) (logits tensor.Vec, value float64) {
	h := p.gcn.Forward(view)
	p.lastView, p.lastH, p.lastN = view, h, view.N()
	p.lastPooled = pool(view, h)
	t := p.torso.Forward(p.lastPooled)
	logits = p.policy.Forward(t)
	value = p.value.Forward(t)[0]
	return logits, value
}

// pool builds the fixed-size torso input: target embedding ‖ mean
// embedding ‖ [n scale, target liberty share].
func pool(view gcn.View, h []tensor.Vec) tensor.Vec {
	f := tensor.NewVec(2*view.M() + 2)
	poolInto(f, view, h)
	return f
}

// poolInto is pool writing into a caller-provided 2m+2 vector. The mean
// embedding accumulates the per-vertex sum first and divides once per
// element — n−1 fewer divisions and n−1 fewer roundings per element
// than dividing every term, and the same single-division mean the GCN
// message pass computes. (The old per-term x/n accumulation was the
// slower and noisier of the two; switching changes forward outputs in
// the last bits, see the checkpoint-compatibility note in DESIGN.md.)
func poolInto(f tensor.Vec, view gcn.View, h []tensor.Vec) {
	m := view.M()
	copy(f[:m], h[0])
	mean := f[m : 2*m]
	mean.Zero()
	for _, hv := range h {
		mean.AddInPlace(hv)
	}
	mean.Scale(1 / float64(len(h)))
	f[2*m] = float64(len(h)) / 100.0
	f[2*m+1] = float64(view.Vec(0).Liberty()) / float64(m)
}

// Evaluate returns the masked prior distribution p̂(·|s) over colors and
// the value estimate v̂ for the state presented by view. Colors whose
// vertex cost is infinite get probability zero. It runs on the
// read-only engine (EvaluateInto into a fresh prior), which is
// bit-identical to Forward followed by Mask and nn.Softmax; Forward
// stays the training path, since Backward needs its caches.
func (p *PBQPNet) Evaluate(view gcn.View) (prior tensor.Vec, value float64) {
	prior = make(tensor.Vec, p.cfg.M)
	return prior, p.EvaluateInto(view, prior)
}

// Mask returns the legal-color mask of the next vertex to color. A
// fully saturated vertex (every color infinite — a dead end the search
// still evaluates before detecting) yields the all-false mask, which
// nn.Softmax maps to the all-zero prior rather than NaN.
func Mask(view gcn.View) []bool {
	return MaskInto(make([]bool, len(view.Vec(0))), view)
}

// MaskInto is Mask writing into a caller-provided slice, which it
// returns.
func MaskInto(mask []bool, view gcn.View) []bool {
	for i, c := range view.Vec(0) {
		mask[i] = !c.IsInf()
	}
	return mask
}

// Backward accumulates gradients for the most recent Forward given
// dL/dlogits and dL/dvalue (pre-tanh gradients are handled internally).
func (p *PBQPNet) Backward(dLogits tensor.Vec, dValue float64) {
	gt := p.policy.Backward(dLogits)
	gv := p.value.Backward(tensor.Vec{dValue})
	gt.AddInPlace(gv)
	gf := p.torso.Backward(gt)
	m := p.cfg.M
	dH := make([]tensor.Vec, p.lastN)
	inv := 1 / float64(p.lastN)
	for v := 0; v < p.lastN; v++ {
		dH[v] = tensor.NewVec(m)
		dH[v].AddScaled(inv, gf[m:2*m])
	}
	dH[0].AddInPlace(gf[:m])
	p.gcn.Backward(p.lastView, dH)
}

// Params returns every trainable parameter.
func (p *PBQPNet) Params() []*nn.Param {
	ps := p.gcn.Params()
	for _, m := range []nn.Module{p.torso, p.policy, p.value} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// tensors returns every parameter and state tensor in deterministic
// order, for checkpointing and cloning.
func (p *PBQPNet) tensors() []tensor.Vec {
	var ts []tensor.Vec
	for _, param := range p.gcn.Params() {
		ts = append(ts, param.W)
	}
	for _, m := range []nn.Module{p.torso, p.policy, p.value} {
		params, state := nn.Collect(m)
		ts = append(ts, params...)
		ts = append(ts, state...)
	}
	return ts
}

// Save serializes the network weights and normalization statistics.
func (p *PBQPNet) Save(w io.Writer) error { return nn.SaveTensors(w, p.tensors()) }

// Load restores weights saved by Save into an identically configured
// network.
func (p *PBQPNet) Load(r io.Reader) error {
	p.invalidateEngine()
	return nn.LoadTensors(r, p.tensors())
}

// SaveBytes serializes the network into a byte slice (the Save format),
// for embedding in checkpoints or comparing two networks exactly.
func (p *PBQPNet) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadBytes restores weights serialized by SaveBytes (or Save).
func (p *PBQPNet) LoadBytes(data []byte) error { return p.Load(bytes.NewReader(data)) }

// Clone returns an independent copy of the network (same architecture,
// copied weights and statistics).
func (p *PBQPNet) Clone() *PBQPNet {
	c := New(p.cfg)
	c.CopyFrom(p)
	return c
}

// CopyFrom copies all weights and statistics from src; architectures
// must match (they do whenever both nets were built from the same Config).
func (p *PBQPNet) CopyFrom(src *PBQPNet) {
	p.invalidateEngine()
	dst, s := p.tensors(), src.tensors()
	if len(dst) != len(s) {
		//pbqpvet:ignore panicfree both nets come from the same Config by construction; mismatch is a code bug
		panic("net: CopyFrom across different architectures")
	}
	for i := range dst {
		if len(dst[i]) != len(s[i]) {
			//pbqpvet:ignore panicfree both nets come from the same Config by construction; mismatch is a code bug
			panic("net: CopyFrom across different architectures")
		}
		copy(dst[i], s[i])
	}
}
