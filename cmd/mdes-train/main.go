// Command mdes-train runs the offline phase of the framework (Algorithm 1)
// on a CSV event log: it splits the log into train/dev, trains the pairwise
// NMT models, and saves the model (relationship graph, sensor languages, NMT
// weights) as JSON for mdes-detect.
//
// Usage:
//
//	mdes-train -in plant.csv -train-ticks 14400 -dev-ticks 4320 -model model.json
//
// Long runs (the paper's plant trains 16,256 pair models) should pass
// -checkpoint: every finished pair is journaled durably, Ctrl-C cancels
// cleanly mid-pair, and re-running with -resume retrains only the pairs the
// interrupted run did not finish.
//
// Large plants should also pass -screen-topk (and/or -screen-threshold):
// candidate-pair screening ranks every ordered pair by a cheap co-occurrence
// association score and trains NMT models only for the selected candidates,
// breaking the O(N²) pair-sweep wall. Both flags off (the default) trains
// every pair, exactly as the paper does.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"mdes"
	"mdes/internal/seqio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdes-train:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdes-train", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV event log (columns = sensors, rows = ticks)")
	modelPath := fs.String("model", "model.json", "output model file")
	trainTicks := fs.Int("train-ticks", 0, "ticks for the training split (required)")
	devTicks := fs.Int("dev-ticks", 0, "ticks for the development split (required)")
	wordLen := fs.Int("word", 10, "characters per word")
	wordStride := fs.Int("word-stride", 1, "word sliding-window stride")
	sentLen := fs.Int("sentence", 20, "words per sentence")
	sentStride := fs.Int("sentence-stride", 20, "sentence sliding-window stride")
	maxVocab := fs.Int("max-vocab", 1024, "per-sensor vocabulary cap (0 = unlimited)")
	hidden := fs.Int("hidden", 32, "LSTM hidden units")
	layers := fs.Int("layers", 2, "LSTM layers")
	steps := fs.Int("steps", 200, "training steps per pair model")
	validLo := fs.Float64("valid-lo", 80, "valid-model BLEU band lower bound")
	validHi := fs.Float64("valid-hi", 90, "valid-model BLEU band upper bound")
	popular := fs.Int("popular", 100, "popular-sensor in-degree threshold")
	screenTopK := fs.Int("screen-topk", 0, "train only the K best-scoring candidate pairs (0 = train every pair)")
	screenThreshold := fs.Float64("screen-threshold", 0, "train only candidate pairs with fused screening score >= this (0 = no floor)")
	workers := fs.Int("workers", 0, "parallel pair-training workers (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "random seed")
	ckpt := fs.String("checkpoint", "", "journal finished pairs to this file (crash/cancel safe)")
	resume := fs.Bool("resume", false, "skip pairs already in the -checkpoint journal")
	progressEvery := fs.Duration("progress-every", 2*time.Second, "minimum interval between progress lines")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			mf, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mdes-train: memprofile:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // flush pending frees so the profile shows live heap
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "mdes-train: memprofile:", err)
			}
		}()
	}

	if *in == "" || *trainTicks <= 0 || *devTicks < 0 {
		return fmt.Errorf("usage: mdes-train -in log.csv -train-ticks N -dev-ticks M [-model out.json]")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	ds, err := seqio.ReadCSV(f)
	_ = f.Close() // read-only; ReadCSV's error is the one that matters
	if err != nil {
		return err
	}
	train, dev, _, err := ds.Split(*trainTicks, *devTicks)
	if err != nil {
		return err
	}

	cfg := mdes.DefaultConfig()
	cfg.Language.WordLen = *wordLen
	cfg.Language.WordStride = *wordStride
	cfg.Language.SentenceLen = *sentLen
	cfg.Language.SentenceStride = *sentStride
	cfg.Language.MaxVocab = *maxVocab
	cfg.NMT.Hidden = *hidden
	cfg.NMT.Embed = *hidden
	cfg.NMT.Layers = *layers
	cfg.NMT.TrainSteps = *steps
	cfg.Screen.TopK = *screenTopK
	cfg.Screen.Threshold = *screenThreshold
	cfg.ValidRange = mdes.Range{Lo: *validLo, Hi: *validHi}
	cfg.PopularInDegree = *popular
	cfg.Workers = *workers
	cfg.Seed = *seed

	fw, err := mdes.New(cfg)
	if err != nil {
		return err
	}

	// SIGINT cancels the run cleanly: in-flight pairs stop within a few
	// optimiser steps, and everything already journaled survives for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var lastLine time.Time
	clock := newProgressClock(time.Now())
	opts := mdes.TrainOptions{
		Checkpoint: *ckpt,
		Resume:     *resume,
		Progress: func(p mdes.TrainProgress) {
			now := time.Now()
			if p.Src == "" && (p.Resumed > 0 || p.TornTail) {
				clock.resumed(now, p.Done)
				msg := fmt.Sprintf("resumed %d/%d pairs from checkpoint", p.Resumed, p.Total)
				if p.TornTail {
					msg += " (dropped a torn record from a crash mid-append)"
				}
				fmt.Fprintln(stdout, msg)
				return
			}
			if now.Sub(lastLine) < *progressEvery && p.Done < p.Total {
				return
			}
			lastLine = now
			elapsed, eta := clock.times(now, p.Done, p.Total)
			fmt.Fprintf(stdout, "pairs %d/%d  bleu min/med/max %.1f/%.1f/%.1f  elapsed %s  eta %s\n",
				p.Done, p.Total, p.BLEUs.Min, p.BLEUs.Median, p.BLEUs.Max,
				elapsed.Round(time.Second), eta.Round(time.Second))
		},
	}
	model, err := fw.TrainWithOptions(ctx, train, dev, opts)
	if err != nil {
		if ctx.Err() != nil && *ckpt != "" {
			fmt.Fprintf(stdout, "interrupted; finished pairs saved to %s — rerun with -resume\n", *ckpt)
		}
		return err
	}

	out, err := os.Create(*modelPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := model.Save(out); err != nil {
		return err
	}
	if s := model.Screen(); s.Enabled {
		fmt.Fprintf(stdout, "screening selected %d of %d pairs (%d skipped before NMT training)\n",
			s.Selected, s.Selected+s.Skipped, s.Skipped)
	}
	fmt.Fprintf(stdout, "trained %d sensors (%d pair models, %d dropped as constant); model -> %s\n",
		len(model.Sensors()), model.Graph().NumEdges(), len(model.DroppedSensors()), *modelPath)
	for _, s := range model.BandStats() {
		fmt.Fprintf(stdout, "  %-10s %5.1f%% of relationships, %d sensors\n",
			s.Range.String(), s.PctRelationships, s.NumSensors)
	}
	return nil
}

// progressClock times a training run for its progress lines. The ETA
// extrapolates the rate of the pairs trained since its anchor: the start,
// or the resume report once one arrives, so the time spent replaying the
// journal and restoring its pairs stays out of the rate.
type progressClock struct {
	start, anchor time.Time
	base          int // pairs done at the anchor
}

func newProgressClock(now time.Time) *progressClock {
	return &progressClock{start: now, anchor: now}
}

// resumed re-anchors the rate at the resume report, which counts done pairs
// restored from the journal.
func (c *progressClock) resumed(now time.Time, done int) { c.anchor, c.base = now, done }

// times is the wall time since the start and the ETA at a report of done of
// total pairs; the ETA is zero until a pair trains after the anchor, and
// once all are done.
func (c *progressClock) times(now time.Time, done, total int) (elapsed, eta time.Duration) {
	if trained := done - c.base; trained > 0 && done < total {
		eta = now.Sub(c.anchor) / time.Duration(trained) * time.Duration(total-done)
	}
	return now.Sub(c.start), eta
}
