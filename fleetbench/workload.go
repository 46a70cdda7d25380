package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"pbqprl/internal/ate"
	"pbqprl/internal/llvmsuite"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/regalloc"
)

// request is one pre-generated solve request.
type request struct {
	// body is the exact byte stream POSTed to the router.
	body []byte
	// graph regenerates the benchmark's own copy of the graph, for
	// verification and the reference solve. Only bodies stay in
	// memory: a list of big-sparse graphs would hold gigabytes.
	graph recipe
	// first is the index of the request that first sent this body: the
	// request's own index, or an earlier one for a resent body.
	first int
}

// workload is one traffic mix.
type workload struct {
	name string
	// chain and costMode are the X-PBQP-Chain and X-PBQP-Cost-Mode
	// knobs every request carries.
	chain    string
	costMode string
	// rate is the nominal answered requests per second on a 2-core
	// host. The request list holds rate × --seconds requests (at least
	// minRequests), so every run with one seed answers the same list
	// and its counts repeat exactly; the window then lasts about
	// --seconds on such a host.
	rate float64
	// source returns a fresh generator of the workload's distinct
	// graphs for a list of n requests; the generator yields the i-th
	// one from rng.
	source func(rng *rand.Rand, n int) graphGen
	// resendShare is the share of requests that resend an earlier
	// body byte for byte.
	resendShare float64
}

// graphGen draws the recipe of the i-th distinct graph of a request
// list from rng.
type graphGen func(rng *rand.Rand, i int) recipe

// recipe deterministically builds one graph.
type recipe func() (*pbqp.Graph, error)

// minRequests keeps the p90 backed by at least fifteen samples beyond
// it. ate-rl's tail is its infeasible answers, which run every stage
// to its budget; with fewer samples its p90 moved by a fifth between
// seeds.
const minRequests = 150

// resendLag is how many requests back a resent body must have first
// been sent, so that its first answer is normally in the router cache
// (a hit) rather than still in flight (coalesced).
const resendLag = 8

var workloads = map[string]*workload{
	"ate-rl": {
		name:     "ate-rl",
		chain:    "rl-bt,liberty,scholz",
		costMode: "zeroinf",
		rate:     4.5,
		source:   ateGraphs,
	},
	"llvm-spill": {
		name:        "llvm-spill",
		chain:       "scholz,liberty",
		costMode:    "spill",
		rate:        28,
		source:      llvmGraphs,
		resendShare: 0.3,
	},
	"big-sparse": {
		name:     "big-sparse",
		chain:    "decomp:scholz",
		costMode: "spill",
		rate:     8.5,
		source:   bigSparseGraphs,
	},
}

func workloadNames() string {
	return strings.Join(sortedKeys(workloads), ", ")
}

func (w *workload) requestCount(seconds int) int {
	n := int(math.Ceil(w.rate * float64(seconds)))
	if n < minRequests {
		n = minRequests
	}
	return n
}

// zeroInf reports whether the workload's answers are judged in the
// ATE zero/infinity regime, where every feasible answer costs 0.
func (w *workload) zeroInf() bool { return w.costMode == "zeroinf" }

// build generates the workload's request list for seed: n requests, of
// which about resendShare resend an earlier body.
func (w *workload) build(seed int64, n int) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]*request, 0, n)
	gen := w.source(rng, n)
	distinct := 0
	for i := 0; i < n; i++ {
		if i >= resendLag && rng.Float64() < w.resendShare {
			prev := reqs[rng.Intn(i-resendLag+1)]
			reqs = append(reqs, &request{body: prev.body, graph: prev.graph, first: prev.first})
			continue
		}
		r := gen(rng, distinct)
		g, err := r()
		if err != nil {
			return nil, fmt.Errorf("%s: generating graph %d: %w", w.name, distinct, err)
		}
		distinct++
		var buf bytes.Buffer
		if err := pbqp.Write(&buf, g); err != nil {
			return nil, fmt.Errorf("%s: serializing graph %d: %w", w.name, distinct, err)
		}
		// An exact-size copy: the buffer's doubling slack would almost
		// double the memory the list holds.
		body := bytes.Clone(buf.Bytes())
		reqs = append(reqs, &request{body: body, graph: r, first: i})
	}
	return reqs, nil
}

// ateGraphs yields fresh ATE zero/infinity programs on the default
// machine with the training distribution's parameters. Vreg counts
// follow NormalN(50, 16, ≥20), stratified: the list takes the n
// quantiles of that distribution in a seeded random order, so runs
// with different seeds differ in their programs but not in their mix
// of sizes.
func ateGraphs(rng *rand.Rand, n int) graphGen {
	sizes := make([]int, n)
	for k := range sizes {
		p := (float64(k) + 0.5) / float64(n)
		sizes[k] = int(math.Max(20, 50+16*math.Sqrt2*math.Erfinv(2*p-1)))
	}
	rng.Shuffle(n, func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
	return atePrograms(sizes)
}

// atePrograms yields ATE programs with sizes[i] vregs for the i-th.
func atePrograms(sizes []int) graphGen {
	mach := ate.DefaultMachine()
	return func(rng *rand.Rand, i int) recipe {
		cfg := ate.GenConfig{
			Name:      fmt.Sprintf("bench%d", i),
			NumVRegs:  sizes[i],
			PairRatio: 0.3,
			HardRatio: 0.4,
			MaxLive:   8,
			Seed:      rng.Int63(),
		}
		return func() (*pbqp.Graph, error) {
			prog, _ := ate.Generate(mach, cfg)
			return ate.BuildPBQP(prog)
		}
	}
}

// llvmGraphs yields one PBQP graph per function of llvmsuite programs
// with fresh seeded names. A program has one or two functions, so the
// generator keeps the current program's remaining functions between
// calls.
func llvmGraphs(*rand.Rand, int) graphGen {
	target := regalloc.DefaultTarget()
	var name string
	next, funcs := 0, 0
	return func(rng *rand.Rand, _ int) recipe {
		if next == funcs {
			name = fmt.Sprintf("%s.%d", llvmsuite.Names[rng.Intn(len(llvmsuite.Names))], rng.Int63())
			next, funcs = 0, len(llvmsuite.Generate(name).Prog.Funcs)
		}
		prog, f := name, next
		next++
		return func() (*pbqp.Graph, error) {
			b := llvmsuite.Generate(prog)
			return regalloc.BuildPBQP(regalloc.NewInput(b.Prog.Funcs[f], target, b.Allowed[f])), nil
		}
	}
}

// bigSparseGraphs yields LargeSparse graphs in BENCH_biggraph's
// shape: 4 colors, 8 components, clusters of 12 with 4 chords each.
// Sizes are uniform over 1000–4000 vertices, stratified like
// ateGraphs: the n quantiles in a seeded random order.
func bigSparseGraphs(rng *rand.Rand, n int) graphGen {
	sizes := make([]int, n)
	for k := range sizes {
		sizes[k] = 1000 + int(3000*(float64(k)+0.5)/float64(n))
	}
	rng.Shuffle(n, func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
	return func(rng *rand.Rand, i int) recipe {
		cfg := randgraph.LargeSparseConfig{
			N:           sizes[i],
			M:           4,
			Components:  8,
			ClusterSize: 12,
			Chords:      4,
		}
		seed := rng.Int63()
		return func() (*pbqp.Graph, error) {
			return randgraph.LargeSparse(rand.New(rand.NewSource(seed)), cfg), nil
		}
	}
}
