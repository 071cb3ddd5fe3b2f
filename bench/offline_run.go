package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mdes"
)

// offlineRound is one train → cold Detect → solo Stream round.
type offlineRound struct {
	model      *mdes.Model
	trainRate  float64      // pairs/s
	detectRate float64      // (relationship × sentence) scorings/s
	laps       []sliceStats // per lap of the solo stream; the percentiles are of the emitting Pushes
	points     []mdes.Point
	streamed   []pointDigest // first lap of the solo stream
}

// runRound trains the bench model on the plant with the given NMT seed, runs
// one cold-cache Detect over the test split, then pushes the test split
// through a solo Stream lap after lap (the first lap is checked against
// Detect; the rest repeat it so the pass is long enough to time, each lap a
// slice of its own).
func runRound(ctx context.Context, p *plant, sz sizes, seed int64, laps int) (*offlineRound, error) {
	model, trainTook, err := trainModel(ctx, p, sz, seed, mdes.PrecisionF64)
	if err != nil {
		return nil, err
	}
	r := &offlineRound{model: model, trainRate: float64(model.Screen().Selected) / trainTook.Seconds()}
	start := time.Now()
	if r.points, err = model.Detect(ctx, p.test); err != nil {
		return nil, err
	}
	r.detectRate = float64(model.Detector().NumValid()*len(r.points)) / time.Since(start).Seconds()

	n := p.test.Ticks() / strideTicks * strideTicks
	ticks := newTickMaps(n, len(p.test.Sequences))
	for t, m := range ticks {
		for _, seq := range p.test.Sequences {
			m[seq.Sensor] = seq.Events[t]
		}
	}
	stream := model.NewStream()
	for lap := 0; lap < laps; lap++ {
		var emitMs []float64
		cpu0 := processCPUSeconds()
		start := time.Now()
		for _, tick := range ticks {
			t0 := time.Now()
			pt, err := stream.Push(tick)
			if err != nil {
				return nil, err
			}
			if pt != nil {
				emitMs = append(emitMs, time.Since(t0).Seconds()*1e3)
				if lap == 0 {
					r.streamed = append(r.streamed, digestsOf([]mdes.Point{*pt})...)
				}
			}
		}
		took := time.Since(start).Seconds()
		sort.Float64s(emitMs)
		r.laps = append(r.laps, sliceStats{
			Seconds: took, Requests: len(emitMs), Ticks: n, CPU: processCPUSeconds() - cpu0,
			P50Ms: percentile(emitMs, 50), P90Ms: percentile(emitMs, 90),
		})
	}
	return r, nil
}

// runOffline measures train-detect. Set-up is plant generation plus one
// warm-up round (heap growth and page faults land there); the measured phase
// repeats rounds until the time is up and reports the fast quartile over
// rounds (training, Detect) and over laps (the solo stream).
func runOffline(ctx context.Context, rp runParams) (*outcome, error) {
	o := newOutcome()
	var setupS []float64
	var p *plant
	for i := 0; i < rp.sz.setups; i++ {
		start := time.Now()
		var err error
		if p, err = makePlant(rp.sz); err != nil {
			return nil, err
		}
		if _, err = runRound(ctx, p, rp.sz, rp.info.Seed, 1); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	o.metrics["setup_s"] = median(setupS)
	o.samples["setup_s"] = len(setupS)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(rp.info.Seconds * float64(time.Second)))
	phase := &phaseStats{Name: "train-detect-rounds"}
	phaseStart := time.Now()
	// Only the last round stays referenced, so heap_live_mb does not depend on
	// how many rounds fit in the time.
	var last *offlineRound
	var trainRate, detectRate []float64
	for last == nil || time.Now().Before(deadline) {
		r, err := runRound(ctx, p, rp.sz, rp.info.Seed+int64(phase.Sent), rp.sz.streamLaps)
		if err != nil {
			return nil, err
		}
		checkOffline(p, r, fmt.Sprintf("round %d", phase.Sent), o)
		last = r
		trainRate, detectRate = append(trainRate, r.trainRate), append(detectRate, r.detectRate)
		phase.Slices = append(phase.Slices, r.laps...)
		phase.Sent++
		phase.Succeeded++
		for _, lap := range r.laps {
			phase.Ticks += lap.Ticks
		}
	}
	phase.Seconds = time.Since(phaseStart).Seconds()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	o.phases = append(o.phases, phase)
	m := o.metrics
	m["train_pairs_per_s"] = fastSide(trainRate, offlineFastPct, true)
	m["detect_sentences_per_s"] = fastSide(detectRate, offlineFastPct, true)
	m["ticks_per_s"] = fastSide(phase.perSlice(false, sliceTicksPerS), offlineFastPct, true)
	m["point_latency_p50_ms"] = fastSide(phase.perSlice(false, sliceP50), offlineFastPct, false)
	m["point_latency_p90_ms"] = fastSide(phase.perSlice(false, sliceP90), offlineFastPct, false)
	// The last round's model, with its warm translation caches, is still
	// referenced here, so the live heap counts exactly one trained model.
	m["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(last)
	o.samples["train_pairs_per_s"], o.samples["detect_sentences_per_s"] = len(trainRate), len(detectRate)
	for _, name := range []string{"ticks_per_s", "point_latency_p50_ms", "point_latency_p90_ms"} {
		o.samples[name] = len(phase.Slices)
	}

	if rp.info.Trace {
		m["runtime.allocs_per_tick"] = float64(m1.Mallocs-m0.Mallocs) / float64(phase.Ticks)
		m["runtime.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		m["runtime.cpu_s_per_ktick"] = fastSide(phase.perSlice(false, sliceCPUPerKtick), offlineFastPct, false)
		m["nmt.train_ms_per_pair"] = meanPairRuntimeMs(last.model)
		cfg := last.model.Config().NMT
		m["nmt.train_tokens_per_s"] = float64(cfg.TrainSteps*cfg.BatchSize*2*sentenceLen) / (m["nmt.train_ms_per_pair"] / 1e3)
		m["nmt.pairs_failed"] = 0 // TrainWithOptions fails the whole run on the first pair error
		m["stream.jobs_per_point"] = float64(last.model.Detector().NumValid())
		if err := layerSuite(ctx, last.model, p, rp.sz, rp.tmpRoot, m); err != nil {
			return nil, err
		}
		if err := writeTrace(rp.traceOut, traceFile{runInfo: rp.info, Passes: map[string][]span{}}); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkOffline runs the output checks of one offline round: the solo Stream's
// first lap equals Detect point for point, and the test days with the highest
// mean anomaly score are exactly the plant's injected anomaly days.
func checkOffline(p *plant, r *offlineRound, label string, o *outcome) {
	o.attempted += 2
	want := digestsOf(r.points)
	if n := pointsAfter(p.test.Ticks() / strideTicks * strideTicks); len(want) >= n {
		want = want[:n]
	}
	if msg := comparePoints(r.streamed, want); msg != "" {
		o.fail("%s: solo stream vs Detect: %s", label, msg)
	}
	flagged := flaggedDays(r.points, p.minutesPerDay, len(p.anomalyTestDays))
	if fmt.Sprint(flagged) != fmt.Sprint(p.anomalyTestDays) {
		o.fail("%s: flagged test days %v, injected anomaly days %v", label, flagged, p.anomalyTestDays)
	}
}

// flaggedDays returns the n test days (0-based, ascending) with the highest
// mean anomaly score. A point belongs to the day its sentence window ends in.
func flaggedDays(points []mdes.Point, minutesPerDay, n int) []int {
	var sum []float64
	var cnt []int
	for i, pt := range points {
		day := (spanTicks - 1 + i*strideTicks) / minutesPerDay
		for len(sum) <= day {
			sum, cnt = append(sum, 0), append(cnt, 0)
		}
		sum[day] += pt.Score
		cnt[day]++
	}
	days := make([]int, len(sum))
	for d := range days {
		days[d] = d
		if cnt[d] > 0 {
			sum[d] /= float64(cnt[d])
		}
	}
	sort.SliceStable(days, func(a, b int) bool { return sum[days[a]] > sum[days[b]] })
	top := append([]int(nil), days[:min(n, len(days))]...)
	sort.Ints(top)
	return top
}
