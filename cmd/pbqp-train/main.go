// Command pbqp-train runs the self-play training pipeline of Section
// IV-A with fault-tolerant checkpointing, either standalone or as a
// worker in a distributed run.
//
// Usage:
//
//	pbqp-train [-iters N] [-episodes N] [-ktrain N] [-workers N]
//	           [-regime ate|er] [-out net.gob]
//	           [-seed S] [-resume] [-checkpoint-dir DIR] [-checkpoint-every N] [-checkpoint-keep K]
//	pbqp-train -worker http://coordinator:8090 [-regime ...] [-episodes ...] [-ktrain ...] [-seed ...]
//
// The "ate" regime trains on zero/infinity graphs with the ATE
// statistics; "er" trains on the paper's Erdős–Rényi distribution with
// a 1 % infinity ratio. Paper-scale parameters (-iters 200 -episodes
// 100) reproduce the full two-week run if you have the patience; the
// defaults finish in minutes.
//
// The trainer checkpoints its complete state (both networks, Adam
// moments, replay queue, RNG stream, iteration position) atomically
// every -checkpoint-every iterations. SIGINT/SIGTERM finishes the
// in-flight episode, checkpoints, and exits cleanly; a second signal
// during that graceful exit forces immediate termination with exit
// code 1. Restarting with -resume (and the same flags) continues
// bit-identically to an uninterrupted run. A truncated or corrupt
// newest checkpoint is detected by checksum and the run falls back to
// the previous valid one.
//
// Episodes and arena games run on -workers goroutines (default: all
// CPUs), each with its own clone of the networks. Every episode's
// randomness comes from a seed pre-drawn from the master RNG stream and
// results are merged in episode order, so the worker count never
// changes the result: any -workers value — including resuming a
// checkpoint under a different one — trains bit-identically to
// -workers 1.
//
// With -worker, the process instead claims episode leases from a
// pbqp-coord coordinator and streams trajectories back, heartbeating
// while it works. The training flags must match the coordinator's (the
// claim handshake verifies a fingerprint of them); scheduling flags
// are local. Workers hold no training state — kill -9 one whenever you
// like.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"pbqprl/internal/checkpoint"
	"pbqprl/internal/dist"
	"pbqprl/internal/experiments"
	"pbqprl/internal/net"
	"pbqprl/internal/selfplay"
)

func main() {
	iters := flag.Int("iters", 5, "training iterations (paper: 200)")
	episodes := flag.Int("episodes", 20, "episodes per iteration (paper: 100)")
	ktrain := flag.Int("ktrain", 50, "MCTS simulations per move (paper: 50 or 100)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent self-play workers (any value trains bit-identically)")
	regime := flag.String("regime", "ate", "training distribution: ate (zero/inf) or er (Erdős–Rényi, p_inf=1%)")
	out := flag.String("out", "pbqp-net.gob", "best-network output path")
	seed := flag.Int64("seed", 1, "training seed")
	meanN := flag.Float64("mean-n", 36, "mean graph size (paper: 100)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint directory (default: <out>.ckpts)")
	ckptEvery := flag.Int("checkpoint-every", 1, "checkpoint every N completed iterations (0 disables periodic checkpoints)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "checkpoints retained on disk")
	resume := flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	workerURL := flag.String("worker", "", "run as a distributed self-play worker against this coordinator URL")
	flag.Parse()
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("pbqp-train: ")

	spec := dist.Spec{
		Episodes: *episodes,
		KTrain:   *ktrain,
		Regime:   *regime,
		MeanN:    *meanN,
		Seed:     *seed,
		Net:      experiments.DefaultNetConfig(),
	}

	// SIGINT/SIGTERM cancels the context; the first signal drains
	// gracefully (finish the in-flight episode, checkpoint, exit
	// cleanly), a second one during that shutdown forces an immediate
	// exit — for the operator whose graceful exit is itself wedged.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		<-sigc
		log.Printf("second signal: forcing immediate exit")
		os.Exit(1)
	}()

	if *workerURL != "" {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator: *workerURL,
			Spec:        spec,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("worker mode: coordinator %s, fingerprint %q", *workerURL, spec.Fingerprint())
		if err := w.Run(ctx); err != nil {
			log.Fatal(err)
		}
		log.Printf("worker: interrupted; exiting cleanly")
		return
	}

	cfg, err := spec.SelfplayConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbqp-train: %v\n", err)
		os.Exit(2)
	}
	cfg.Workers = *workers
	cfg.Logf = log.Printf

	trainer, err := selfplay.NewTrainer(net.New(spec.Net), cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *ckptDir == "" {
		*ckptDir = *out + ".ckpts"
	}
	store, err := checkpoint.NewStore(*ckptDir, *ckptKeep)
	if err != nil {
		log.Fatal(err)
	}
	store.Logf = log.Printf

	if *resume {
		id, payload, err := store.LoadLatest()
		switch {
		case err == nil:
			if err := trainer.DecodeState(payload); err != nil {
				log.Fatal(err)
			}
			log.Printf("resumed from checkpoint %d (%d iterations complete)", id, trainer.Iter())
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			log.Printf("no checkpoint in %s; starting fresh", store.Dir())
		default:
			log.Fatal(err)
		}
	}

	save := func() {
		payload, err := trainer.EncodeState()
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Save(trainer.Iter(), payload); err != nil {
			log.Fatal(err)
		}
	}

	interrupted := false
	for trainer.Iter() < *iters {
		stats, err := trainer.RunIteration(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				save()
				log.Printf("interrupted during iteration %d; state checkpointed to %s — rerun with -resume", trainer.Iter()+1, store.Dir())
				interrupted = true
				break
			}
			// divergence or another unrecoverable error: do NOT
			// checkpoint the poisoned state
			log.Fatal(err)
		}
		fmt.Println(stats)
		if *ckptEvery > 0 && trainer.Iter()%*ckptEvery == 0 {
			save()
		}
	}
	if interrupted {
		return
	}
	if *ckptEvery > 0 && *iters%*ckptEvery != 0 {
		save()
	}

	data, err := trainer.Best().SaveBytes()
	if err != nil {
		log.Fatal(err)
	}
	if err := checkpoint.WriteFileAtomic(*out, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved best network to %s\n", *out)
}
