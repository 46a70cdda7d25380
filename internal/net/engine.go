package net

// Read-only evaluation, the network's one inference path. The engine
// runs the same computation as the training path — Forward's GCN
// embedding, pooling, torso and heads, then Mask and nn.Softmax —
// through the read-only inference paths (gcn.Infer, nn.InferBatch) and
// reusable scratch buffers. Its contract is bit-identity: each view's
// (prior, value) is bit-for-bit what Forward, Mask and nn.Softmax give
// for that view, for any batch size and order. Evaluate and
// EvaluateInto run it on one view; EvaluateBatch runs several through
// one blocked matmul pass per layer.
//
// The engine shares the owning net's single-goroutine discipline (as
// do the Forward caches). Weight-derived caches are dropped whenever
// the weights can have changed: SetTraining (which brackets every
// training step), Load, and CopyFrom all invalidate.

import (
	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

// engine is the scratch state of the read-only evaluation path.
type engine struct {
	gsc    gcn.Scratch
	isc    nn.InferScratch
	pooled *tensor.Mat // batch × (2m+2) torso input
	mask   []bool
	one    [1]gcn.View // view buffer for the single-eval path
}

func (p *PBQPNet) engineState() *engine {
	if p.eng == nil {
		p.eng = &engine{}
	}
	return p.eng
}

// invalidateEngine drops every engine cache derived from the weights.
func (p *PBQPNet) invalidateEngine() {
	if p.eng != nil {
		p.eng.gsc.InvalidateWeights()
	}
}

// inferHeads runs the batched pass up to the raw head outputs:
// logits[b] and value[b][0] for each view, both aliasing the arena.
//
//pbqpvet:hotpath
func (p *PBQPNet) inferHeads(views []gcn.View) (logits, vals *tensor.Mat) {
	e := p.engineState()
	b := len(views)
	in := 2*p.cfg.M + 2
	if e.pooled == nil || cap(e.pooled.W) < b*in {
		//pbqpvet:ignore hotalloc scratch growth on first sight of a larger batch; steady state reuses the buffer
		e.pooled = tensor.NewMat(b, in)
	} else {
		e.pooled.R, e.pooled.C = b, in
		e.pooled.W = e.pooled.W[:b*in]
	}
	for i, view := range views {
		// Infer's rows alias the gcn scratch; poolInto consumes them
		// before the next iteration overwrites
		poolInto(e.pooled.Row(i), view, p.gcn.Infer(view, &e.gsc))
	}
	e.isc.Reset()
	t := nn.InferBatch(p.torso, e.pooled, &e.isc)
	return nn.InferBatch(p.policy, t, &e.isc), nn.InferBatch(p.value, t, &e.isc)
}

// EvaluateInto is Evaluate writing the prior into a caller-provided
// length-m vector: no allocation in the steady state, no Forward
// caches touched.
//
//pbqpvet:hotpath
func (p *PBQPNet) EvaluateInto(view gcn.View, prior tensor.Vec) (value float64) {
	e := p.engineState()
	e.one[0] = view
	logits, vals := p.inferHeads(e.one[:])
	e.one[0] = nil
	if cap(e.mask) < p.cfg.M {
		e.mask = make([]bool, p.cfg.M)
	}
	nn.SoftmaxInto(prior, logits.Row(0), MaskInto(e.mask[:p.cfg.M], view))
	return vals.At(0, 0)
}

// EvaluateBatch evaluates every view in one batched pass and returns
// per-view priors (freshly allocated, caller-owned) and values. Each
// (priors[i], values[i]) is bit-identical to Evaluate(views[i]),
// whatever the batch composition.
//
//pbqpvet:hotpath
func (p *PBQPNet) EvaluateBatch(views []gcn.View) (priors []tensor.Vec, values []float64) {
	if len(views) == 0 {
		return nil, nil
	}
	e := p.engineState()
	logits, vals := p.inferHeads(views)
	m := p.cfg.M
	if cap(e.mask) < m {
		e.mask = make([]bool, m)
	}
	priors = make([]tensor.Vec, len(views))
	values = make([]float64, len(views))
	//pbqpvet:ignore hotalloc caller-owned result priors; EvaluateBatch's contract returns fresh vectors
	flat := make(tensor.Vec, len(views)*m)
	for i, view := range views {
		pr := flat[i*m : (i+1)*m]
		nn.SoftmaxInto(pr, logits.Row(i), MaskInto(e.mask[:m], view))
		priors[i] = pr
		values[i] = vals.At(i, 0)
	}
	return priors, values
}
