package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pbqprl/internal/decomp"
	"pbqprl/internal/experiments"
	"pbqprl/internal/game"
	pbqpnet "pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/reduce"
	"pbqprl/internal/rl"
	"pbqprl/internal/solve/scholz"
)

// replayCap bounds how many distinct bodies the traced run replays
// through the layers' public functions; the first ones in list order.
const replayCap = 48

// netReplayGraphs is how many rl solves the allocation replay runs.
const netReplayGraphs = 3

// stageKey names a chain stage in metric names: the chain spec with
// the "decomp:" prefix spelled "decomp-" (metric names allow no ':').
func stageKey(spec string) string { return strings.ReplaceAll(spec, ":", "-") }

// allStageKeys lists every stage of every workload's chain, so every
// workload reports the same per-layer metric names.
func allStageKeys() []string {
	seen := map[string]bool{}
	var keys []string
	for _, name := range sortedKeys(workloads) {
		for _, spec := range strings.Split(workloads[name].chain, ",") {
			if k := stageKey(spec); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// perLayer derives the router, server, portfolio, mcts and net metrics
// of the traced pass, and the tracing overhead against the untraced
// pass base.
func perLayer(w *workload, reqs []*request, p *pass, tr *tracer, base, traced *e2e) map[string]metric {
	m := map[string]metric{}

	// Client and router: hit share from the X-PBQP-Cache header; the
	// router's self time is client latency minus the backend hops.
	answered, hits := 0, 0
	var client time.Duration
	for i, s := range p.samples {
		if traced.answers[i] == nil {
			continue
		}
		answered++
		client += s.end.Sub(s.start)
		if s.cache == "hit" || s.cache == "coalesced" {
			hits++
		}
	}
	hops := tr.named("router.backend")
	var hopTime time.Duration
	for _, h := range hops {
		hopTime += h.dur()
	}
	m["client.latency_mean_ms"] = metric{ratio(ms(client), float64(answered)), "ms"}
	m["router.cache_hit_share"] = metric{ratio(float64(hits), float64(answered)), "share"}
	m["router.backend_rtt_ms"] = metric{ratio(ms(hopTime), float64(len(hops))), "ms"}
	m["router.self_ms"] = metric{ratio(ms(client-hopTime), float64(answered)), "ms"}

	// Server and portfolio, from the answers the backend produced for
	// this request (cache misses); hits and coalesced answers replay
	// an earlier solve's body.
	stages := strings.Split(w.chain, ",")
	type stageAcc struct {
		ran, skipped, won int
		dur               time.Duration
		states            int64
	}
	acc := make([]stageAcc, len(stages))
	solves := 0
	var queue, solveTime time.Duration
	for i, s := range p.samples {
		a := traced.answers[i]
		if a == nil || s.cache != "miss" {
			continue
		}
		solves++
		queue += time.Duration(a.QueueNanos)
		solveTime += time.Duration(a.SolveNanos)
		for j, out := range a.Stats.Stages {
			if j >= len(acc) {
				break
			}
			if a.Stats.Winner == j {
				acc[j].won++
			}
			if out.Skipped {
				acc[j].skipped++
				continue
			}
			acc[j].ran++
			acc[j].dur += out.Duration
			acc[j].states += out.Result.States
		}
	}
	n := float64(solves)
	m["server.queue_wait_ms"] = metric{ratio(ms(queue), n), "ms"}
	m["server.solve_ms"] = metric{ratio(ms(solveTime), n), "ms"}
	m["server.http_ms"] = metric{ratio(ms(hopTime), float64(len(hops))) - ratio(ms(queue+solveTime), n), "ms"}
	for _, k := range allStageKeys() {
		m["portfolio."+k+".ms"] = metric{0, "ms"}
		m["portfolio."+k+".win_share"] = metric{0, "share"}
		m["portfolio."+k+".skipped_share"] = metric{0, "share"}
		m["portfolio."+k+".states"] = metric{0, "count"}
	}
	rlIdx := -1
	for j, spec := range stages {
		k := stageKey(spec)
		m["portfolio."+k+".ms"] = metric{ratio(ms(acc[j].dur), float64(acc[j].ran)), "ms"}
		m["portfolio."+k+".win_share"] = metric{ratio(float64(acc[j].won), n), "share"}
		m["portfolio."+k+".skipped_share"] = metric{ratio(float64(acc[j].skipped), n), "share"}
		m["portfolio."+k+".states"] = metric{ratio(float64(acc[j].states), float64(acc[j].ran)), "count"}
		if spec == "rl" || spec == "rl-bt" {
			rlIdx = j
		}
	}

	// MCTS and network: every evaluation runs inside an rl stage, so
	// the search's self time is the rl stage time minus the evaluator
	// time, in aggregate (an evaluator clone cannot be joined to its
	// request).
	var evals int
	var evalTime time.Duration
	for _, s := range tr.named("net.eval") {
		evals += s.count()
		evalTime += s.dur()
	}
	var rlSolves float64
	var rlTime time.Duration
	var nodes int64
	if rlIdx >= 0 {
		rlSolves = float64(acc[rlIdx].ran)
		rlTime = acc[rlIdx].dur
		nodes = acc[rlIdx].states
	}
	m["mcts.nodes_per_solve"] = metric{ratio(float64(nodes), rlSolves), "count"}
	m["mcts.self_ms"] = metric{ratio(ms(rlTime-evalTime), rlSolves), "ms"}
	m["net.evals_per_solve"] = metric{ratio(float64(evals), rlSolves), "count"}
	m["net.eval_us"] = metric{ratio(float64(evalTime)/float64(time.Microsecond), float64(evals)), "us"}
	m["net.busy_share"] = metric{ratio(float64(evalTime), float64(rlTime)), "share"}

	// Tracing overhead: the traced pass against the untraced one on
	// the same request list.
	m["trace.overhead_p50_share"] = metric{
		ratio(traced.metrics["latency_p50_ms"].Value, base.metrics["latency_p50_ms"].Value) - 1, "share"}
	m["trace.overhead_rate_share"] = metric{
		1 - ratio(traced.metrics["solves_per_s"].Value, base.metrics["solves_per_s"].Value), "share"}
	return m
}

// replayLayers replays the first replayCap distinct bodies through
// pbqp.ReadWithLimits, pbqp.CanonicalHash and reduce.Apply, the graphs
// of decomp chains through decomp.Solver.SolveWithInfo with a timing
// inner solver, and — for rl chains — a few rl solves with an
// allocation-measuring evaluator. It runs on one goroutine with both
// stacks stopped, so per-call allocation counts are exact.
func replayLayers(ctx context.Context, w *workload, reqs []*request, tr *tracer, m map[string]metric) error {
	withDecomp := strings.Contains(w.chain, "decomp:")
	var parseTime, hashTime, reduceTime time.Duration
	var parseBytes, parseAlloc uint64
	var eliminated, vertices int
	replayed := 0
	var graphs []*pbqp.Graph // the first netReplayGraphs, for netAllocReplay
	type decompAcc struct {
		solves, blocks, largest int
		dur                     time.Duration
	}
	var dec decompAcc
	var before, after runtime.MemStats
	for i, r := range reqs {
		if r.first != i {
			continue
		}
		if replayed == replayCap {
			break
		}
		replayed++
		runtime.ReadMemStats(&before)
		start := clock()
		g, err := pbqp.ReadWithLimits(bytes.NewReader(r.body), pbqp.ReadLimits{})
		end := clock()
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", i, err)
		}
		tr.record("pbqp.parse", 0, i, start, end)
		parseTime += end.Sub(start)
		parseBytes += uint64(len(r.body))
		parseAlloc += after.TotalAlloc - before.TotalAlloc
		if len(graphs) < netReplayGraphs {
			graphs = append(graphs, g)
		}

		start = clock()
		if _, err := pbqp.CanonicalHash(g); err != nil {
			return fmt.Errorf("replaying request %d: %w", i, err)
		}
		end = clock()
		tr.record("pbqp.hash", 0, i, start, end)
		hashTime += end.Sub(start)

		start = clock()
		red := reduce.Apply(g)
		end = clock()
		tr.record("reduce.apply", 0, i, start, end)
		reduceTime += end.Sub(start)
		eliminated += red.Eliminated
		vertices += g.NumVertices()

		if withDecomp {
			id := tr.newID()
			ds := &decomp.Solver{Inner: &timedSolver{inner: scholz.Solver{}, tr: tr, name: "decomp.inner", parent: id, req: i}}
			start = clock()
			_, info := ds.SolveWithInfo(ctx, g)
			end = clock()
			tr.add(span{ID: id, Name: "decomp.solve", Req: i}, start, end)
			dec.solves++
			dec.dur += end.Sub(start)
			dec.blocks += info.Blocks
			dec.largest += info.LargestBlock
		}
	}
	n := float64(replayed)
	m["pbqp.parse_ms"] = metric{ratio(ms(parseTime), n), "ms"}
	m["pbqp.parse_mb_per_s"] = metric{ratio(float64(parseBytes)/1e6, parseTime.Seconds()), "MB/s"}
	m["pbqp.parse_alloc_mb"] = metric{ratio(float64(parseAlloc)/1e6, n), "MB"}
	m["pbqp.hash_ms"] = metric{ratio(ms(hashTime), n), "ms"}
	m["reduce.ms"] = metric{ratio(ms(reduceTime), n), "ms"}
	m["reduce.eliminated_share"] = metric{ratio(float64(eliminated), float64(vertices)), "share"}

	// Every inner span is a child of one decomp.solve span, so the
	// decomposition's self time is its time minus all inner time.
	var innerTime time.Duration
	inner := tr.named("decomp.inner")
	for _, s := range inner {
		innerTime += s.dur()
	}
	d := float64(dec.solves)
	m["decomp.ms"] = metric{ratio(ms(dec.dur), d), "ms"}
	m["decomp.self_ms"] = metric{ratio(ms(dec.dur-innerTime), d), "ms"}
	m["decomp.inner_ms"] = metric{ratio(ms(innerTime), d), "ms"}
	m["decomp.inner_calls"] = metric{ratio(float64(len(inner)), d), "count"}
	m["decomp.blocks"] = metric{ratio(float64(dec.blocks), d), "count"}
	m["decomp.largest_block"] = metric{ratio(float64(dec.largest), d), "count"}

	m["net.alloc_kb_per_eval"] = metric{0, "KB"}
	if strings.Contains(","+w.chain+",", ",rl-bt,") {
		kb, err := netAllocReplay(ctx, graphs, tr)
		if err != nil {
			return err
		}
		m["net.alloc_kb_per_eval"] = metric{kb, "KB"}
	}
	return nil
}

// netAllocReplay runs rl-bt solves, configured as the server's rl-bt
// stage, on the first netReplayGraphs graphs with an evaluator that
// measures each evaluation's allocations, and returns KB per
// evaluation.
func netAllocReplay(ctx context.Context, graphs []*pbqp.Graph, tr *tracer) (float64, error) {
	base := pbqpnet.New(experiments.DefaultNetConfig())
	for _, g := range graphs {
		sv := &rl.Solver{
			Net: wrapEvaluator(base.Clone(), tr, "replay.net.eval", true),
			Cfg: rl.Config{
				K:            simsPerAction,
				Order:        game.OrderDecLiberty,
				Backtrack:    true,
				ReinvokeMCTS: true,
				MaxNodes:     maxStates,
			},
		}
		if res := sv.SolveCtx(ctx, g); res.Truncated {
			return 0, fmt.Errorf("allocation replay truncated")
		}
	}
	var evals int
	var alloc uint64
	for _, s := range tr.named("replay.net.eval") {
		evals += s.count()
		alloc += s.Alloc
	}
	return ratio(float64(alloc)/1e3, float64(evals)), nil
}
