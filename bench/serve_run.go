package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mdes"
)

// runParams is one invocation's arguments.
type runParams struct {
	spec     workloadSpec
	sz       sizes
	tmpRoot  string // inside the checkout; removed by the caller
	traceOut string
	info     runInfo
}

// outcome is what a workload run hands back to main: metric values by name,
// other estimates of the same quantities (whole-phase means, pooled
// percentiles) for the run record, the output-check verdict, and the details
// the run record keeps.
type outcome struct {
	metrics   map[string]float64
	other     map[string]float64
	attempted int
	failed    int
	failures  []string // output-check failures, first few
	phases    []*phaseStats
	samples   map[string]int // sample count behind each percentile or median
	notes     map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, other: map[string]float64{}, samples: map[string]int{}, notes: map[string]string{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// setUp is one set-up of the system under test: a model trained on the plant
// behind running replicas, warmed up, and the load generator that drives it.
type setUp struct {
	sys       *system
	lg        *loadGen
	plant     *plant
	warm      *phaseStats
	seconds   float64 // plant + train + quantize + server start + warm-up
	pairsPerS float64 // of the training alone
}

func newSetUp(ctx context.Context, rp runParams, clients int) (*setUp, error) {
	start := time.Now()
	p, err := makePlant(rp.sz)
	if err != nil {
		return nil, err
	}
	model, trainTook, err := trainModel(ctx, p, rp.sz, trainSeed, rp.spec.precision)
	if err != nil {
		return nil, err
	}
	stateDir, err := os.MkdirTemp(rp.tmpRoot, "sys-")
	if err != nil {
		return nil, err
	}
	sys, err := startSystem(rp.spec, model, stateDir, clients)
	if err != nil {
		return nil, err
	}
	logTicks := 2 * p.minutesPerDay / strideTicks * strideTicks
	tr := newTraffic(newTickLog(p.test, logTicks), rp.spec, rp.sz, rp.info.Seed)
	lg := newLoadGen(sys, tr, clients)
	warm := lg.sendEach(ctx, "warm-up", warmRequests(rp.spec, logTicks))
	if bad := warm.Failed + warm.Refused; bad > 0 {
		sys.stop()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", bad, warm.Sent)
	}
	return &setUp{
		sys: sys, lg: lg, plant: p, warm: warm,
		seconds: time.Since(start).Seconds(), pairsPerS: float64(model.Screen().Selected) / trainTook.Seconds(),
	}, nil
}

// warmRequests is how many requests per tenant the warm-up sends. Replayed
// traffic needs one full lap plus the windows that straddle the wrap before
// every sentence has been seen; novel traffic has no lap to finish, so it
// only gets sessions resident and the pool warm.
func warmRequests(spec workloadSpec, logTicks int) int {
	if spec.novel {
		return 24
	}
	return logTicks/strideTicks + 2
}

func meanPairRuntimeMs(m *mdes.Model) float64 {
	rts := m.PairRuntimes()
	if len(rts) == 0 {
		return 0
	}
	var sum time.Duration
	for _, r := range rts {
		sum += r.Runtime
	}
	return ms(sum) / float64(len(rts))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runServing measures one serving workload. The system is set up `sz.setups`
// times and each one gets its share of the measured rounds, so set-up time has
// several samples and the rounds are spread over the whole run: the host's slow
// spells last seconds to tens of seconds, and a phase that spans more wall time
// is likelier to see the host at its normal speed. A traced run reports no
// set-up time and sets up once.
func runServing(ctx context.Context, rp runParams) (*outcome, error) {
	clients := min(runtime.NumCPU(), rp.spec.tenants)
	setups := rp.sz.setups
	if rp.info.Trace {
		setups = 1
	}
	rounds := max(setups, int(rp.info.Seconds/roundLen.Seconds()+0.5))
	o := newOutcome()
	warm, fill := &phaseStats{Name: "warm-up"}, &phaseStats{}
	closed, open := &phaseStats{Name: "closed-loop"}, &phaseStats{Name: "open-loop"}
	var setupS, trainRate, detectRate []float64
	for i := 0; i < setups; i++ {
		su, err := newSetUp(ctx, rp, clients)
		if err != nil {
			return nil, err
		}
		sys, lg := su.sys, su.lg
		warm.absorb(su.warm)
		setupS, trainRate = append(setupS, su.seconds), append(trainRate, su.pairsPerS)
		last := i == setups-1
		if last && rp.spec.novel {
			// Novel traffic grows the translation caches with every request, and
			// a full cache is dropped whole, so the live heap after a timed phase
			// is a sawtooth in the number of requests that happened to fit. A
			// fixed count of requests fills the caches to the same level instead.
			fill = lg.sendEach(ctx, "fill", rp.sz.fillRequests)
		}
		if rp.info.Trace {
			o.phases = nonEmpty(warm, fill)
			o.metrics["nmt.train_ms_per_pair"] = meanPairRuntimeMs(sys.model)
			err = runTraced(ctx, rp, sys, lg, su.plant, o, rounds)
			sys.stop()
			return o, err
		}
		if last {
			// Every tenant is resident and has sent a fixed number of requests:
			// the live heap here does not depend on how fast the timed rounds run.
			runtime.GC()
			runtime.GC() // the second cycle frees what the first one's sync.Pool victims held
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			o.metrics["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
		}
		share := rounds / setups // the first rounds%setups set-ups take one round more
		if i < rounds%setups {
			share++
		}
		c, op := lg.alternate(ctx, rp.spec.openRate, share, false)
		closed.absorb(c)
		open.absorb(op)
		detectRate = append(detectRate, checkServing(ctx, sys, lg, rp.sz, o)...)
		sys.stop()
	}
	o.phases = nonEmpty(warm, fill, closed, open)
	checkPhases(o)
	m := o.metrics
	m["setup_s"] = median(setupS)
	m["train_pairs_per_s"] = fastSide(trainRate, servingFastPct, true)
	m["detect_sentences_per_s"] = fastSide(detectRate, servingFastPct, true)
	m["ticks_per_s"] = fastSide(closed.perSlice(false, sliceTicksPerS), servingFastPct, true)
	m["point_latency_p50_ms"] = fastSide(open.perSlice(false, sliceP50), servingFastPct, false)
	m["point_latency_p90_ms"] = fastSide(open.perSlice(false, sliceP90), servingFastPct, false)
	o.samples["setup_s"] = len(setupS)
	o.samples["train_pairs_per_s"], o.samples["detect_sentences_per_s"] = len(trainRate), len(detectRate)
	o.samples["ticks_per_s"] = len(closed.Slices)
	o.samples["point_latency_p50_ms"], o.samples["point_latency_p90_ms"] = len(open.latenciesMs), len(open.latenciesMs)
	lat := sortedCopy(open.latenciesMs)
	o.other["ticks_per_s.whole_phase"] = float64(closed.Ticks) / closed.Seconds
	o.other["point_latency_p50_ms.pooled"] = percentile(lat, 50)
	o.other["point_latency_p90_ms.pooled"] = percentile(lat, 90)
	o.other["point_latency_p99_ms.pooled"] = percentile(lat, 99)
	return o, nil
}

// nonEmpty drops the phases a workload does not have.
func nonEmpty(phases ...*phaseStats) []*phaseStats {
	var out []*phaseStats
	for _, ps := range phases {
		if ps.Sent > 0 {
			out = append(out, ps)
		}
	}
	return out
}

// runTraced is the --trace 1 run of a serving workload. The closed loop
// alternates traced and untraced slices, which gives the tracing overhead;
// it and the open loop run between two /metrics scrapes, so the servers' own
// counters cover exactly them. Then the same inputs are replayed
// single-goroutine at three depths — client, handler, stream — whose span
// differences are each layer's self time, and the layer suite runs.
func runTraced(ctx context.Context, rp runParams, sys *system, lg *loadGen, p *plant, o *outcome, rounds int) error {
	before, err := sys.scrape()
	if err != nil {
		return err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	depth := newDepthSampler(sys)
	closed, open := lg.alternate(ctx, rp.spec.openRate, rounds, true)
	runtime.ReadMemStats(&m1)
	maxDepth := depth.stop()
	after, err := sys.scrape()
	if err != nil {
		return err
	}
	o.phases = append(o.phases, closed, open)
	m := o.metrics
	plainRate := fastSide(closed.perSlice(false, sliceTicksPerS), servingFastPct, true)
	tracedRate := fastSide(closed.perSlice(true, sliceTicksPerS), servingFastPct, true)
	m["trace.overhead_share"] = 1 - ratio(tracedRate, plainRate)
	m["runtime.cpu_s_per_ktick"] = fastSide(closed.perSlice(true, sliceCPUPerKtick), servingFastPct, false)
	m["runtime.allocs_per_tick"] = float64(m1.Mallocs-m0.Mallocs) / float64(closed.Ticks+open.Ticks)
	m["runtime.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	m["client.request_us"] = median(closed.latenciesMs) * 1e3
	lat := sortedCopy(open.latenciesMs)
	m["client.point_latency_p99_ms"] = percentile(lat, 99)
	m["client.sched_late_p99_ms"] = percentile(sortedCopy(open.lateMs), 99)
	o.samples["client.point_latency_p99_ms"], o.samples["client.sched_late_p99_ms"] = len(lat), len(open.lateMs)
	o.notes["highest_supported_percentile"] = fmt.Sprint(highestSupportedPercentile(len(lat)))
	m["client.requests_sent"] = float64(closed.Sent + open.Sent)
	m["client.requests_failed"] = float64(closed.Failed + open.Failed)
	m["client.requests_refused"] = float64(closed.Refused + open.Refused)
	m["client.redirects"] = float64(sys.client.Stats().Redirects)
	m["serve.jobs_per_batch"] = ratio(after.delta(before, "mdes_serve_score_batch_jobs_total"), after.delta(before, "mdes_serve_score_batches_total"))
	m["serve.score_call_mean_us"] = ratio(after.delta(before, "mdes_serve_score_latency_seconds_sum"), after.delta(before, "mdes_serve_score_latency_seconds_count")) * 1e6
	m["serve.score_call_p50_us"] = after.histQuantile(before, "mdes_serve_score_latency_seconds", 0.5) * 1e6
	m["serve.score_call_p99_us"] = after.histQuantile(before, "mdes_serve_score_latency_seconds", 0.99) * 1e6
	m["serve.score_queue_depth_max"] = maxDepth
	m["serve.rejected_total"] = after.delta(before, "mdes_serve_requests_rejected_total")
	m["serve.degraded_ticks"] = after.delta(before, "mdes_serve_degraded_ticks_total")
	m["serve.repl_enqueued"] = after.delta(before, "mdes_serve_repl_enqueued_total")
	m["serve.repl_coalesced"] = after.delta(before, "mdes_serve_repl_coalesced_total")
	m["serve.repl_dropped"] = after.delta(before, "mdes_serve_repl_dropped_total")
	m["serve.repl_shipped"] = after.delta(before, "mdes_serve_repl_shipped_total")
	m["serve.repl_lag_p50_ms"] = after.histQuantile(before, "mdes_serve_repl_lag_seconds", 0.5) * 1e3
	m["serve.repl_lag_p99_ms"] = after.histQuantile(before, "mdes_serve_repl_lag_seconds", 0.99) * 1e3
	m["serve.redirects_total"] = after.delta(before, "mdes_serve_cluster_redirects_total")
	checkServing(ctx, sys, lg, rp.sz, o)
	checkPhases(o)

	// The three single-goroutine passes over identical inputs. A pass reports
	// the median of its spans, which a stall in a few requests does not move.
	in := passInputs{tr: lg.tr, perTenant: rp.sz.tracePerTenant}
	if !rp.spec.novel {
		in.warm = warmRequests(rp.spec, lg.tr.log.n)
	}
	p1, err := clientPass(ctx, rp.spec, sys.model, in, rp.tmpRoot)
	if err != nil {
		return err
	}
	p2, err := handlerPass(ctx, rp.spec, sys.model, in, rp.tmpRoot)
	if err != nil {
		return err
	}
	p3, st, err := streamPass(sys.model, in)
	if err != nil {
		return err
	}
	o.attempted += 2
	if err := agree(p1, p2, "client", "handler"); err != nil {
		o.fail("%v", err)
	}
	if err := agree(p2, p3, "handler", "stream"); err != nil {
		o.fail("%v", err)
	}
	clientUs, handlerUs := medianSpanUs(p1.spans, "client.request"), medianSpanUs(p2.spans, "serve.handler")
	m["client.transport_us_per_request"] = clientUs - handlerUs
	m["serve.handler_us_per_request"] = handlerUs
	memoryOnlyUs := handlerUs
	if rp.spec.durable {
		// The same handler pass on a standalone memory-only server: what the
		// durable one pays on top is the snapshot write, the ownership gate and
		// the replication offer.
		plainSpec := rp.spec
		plainSpec.replicas, plainSpec.durable = 1, false
		p2b, err := handlerPass(ctx, plainSpec, sys.model, in, rp.tmpRoot)
		if err != nil {
			return err
		}
		o.attempted++
		if err := agree(p2, p2b, "handler", "handler-memory-only"); err != nil {
			o.fail("%v", err)
		}
		memoryOnlyUs = medianSpanUs(p2b.spans, "serve.handler")
	}
	m["serve.snapshot_us_per_request"] = handlerUs - memoryOnlyUs
	m["serve.self_us_per_request"] = memoryOnlyUs - st.requestUs
	m["stream.push_ns_per_tick"] = st.pushNs
	m["stream.emit_us_per_point"] = st.emitUs
	m["stream.self_us_per_point"] = st.emitSelfUs - st.evaluateNs/1e3
	m["stream.jobs_per_point"] = ratio(float64(st.jobs), float64(st.points))
	m["stream.sentence_repeat_share"] = ratio(float64(st.repeats), float64(st.jobs))
	m["stream.sentence_working_set"] = float64(st.workingSet)
	m["stream.score_share_of_handler"] = ratio(st.emitUs-st.emitSelfUs, memoryOnlyUs)
	m["infer.translate_us_per_sentence"] = st.translateUs
	m["anomaly.evaluate_ns_per_point"] = st.evaluateNs

	if err := durabilityProbe(ctx, rp, sys.model, lg.tr, m); err != nil {
		return err
	}
	if err := layerSuite(ctx, sys.model, p, rp.sz, rp.tmpRoot, m); err != nil {
		return err
	}
	cfg := sys.model.Config().NMT
	m["nmt.train_tokens_per_s"] = float64(cfg.TrainSteps*cfg.BatchSize*2*sentenceLen) / (m["nmt.train_ms_per_pair"] / 1e3)
	m["nmt.pairs_failed"] = 0 // TrainWithOptions fails the whole run on the first pair error
	return writeTrace(rp.traceOut, traceFile{
		runInfo: rp.info,
		Passes: map[string][]span{
			"closed-loop": closed.spans, "open-loop": open.spans,
			"client": p1.spans, "handler": p2.spans, "stream": p3.spans,
		},
	})
}

// depthSampler polls the servers' score-queue-depth gauge during the traced
// phases; the gauge is only ever sampled at scrape time, so its maximum has
// to be collected from outside.
type depthSampler struct {
	quit chan struct{}
	done chan float64
}

func newDepthSampler(sys *system) *depthSampler {
	ds := &depthSampler{quit: make(chan struct{}), done: make(chan float64)}
	go func() {
		maxDepth := 0.0
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ds.quit:
				ds.done <- maxDepth
				return
			case <-t.C:
				if s, err := sys.scrape(); err == nil {
					maxDepth = max(maxDepth, s["mdes_serve_score_queue_depth"])
				}
			}
		}
	}()
	return ds
}

func (ds *depthSampler) stop() float64 {
	close(ds.quit)
	return <-ds.done
}

// durabilityProbe measures what a snapshot costs on disk and what a restore
// costs a tenant's first request after a restart, on a standalone durable
// server: push two requests per tenant, shut down, restart on the same
// directory, and compare each tenant's first request (which restores) with
// its second (which does not).
func durabilityProbe(ctx context.Context, rp runParams, model *mdes.Model, tr *traffic, m map[string]float64) error {
	dir, err := os.MkdirTemp(rp.tmpRoot, "probe-")
	if err != nil {
		return err
	}
	spec := workloadSpec{name: "probe", replicas: 1, durable: true}
	tenants := min(8, len(tr.names))
	ticks := newTickMaps(strideTicks, len(tr.log.sensors))
	var restoreNs, plainNs int64
	for round := 0; round < 2; round++ {
		sys, err := startSystem(spec, model, dir, 1)
		if err != nil {
			return err
		}
		for t := 0; t < tenants; t++ {
			for req := 2 * round; req < 2*round+2; req++ {
				tr.fill(ticks, t, req*strideTicks)
				start := time.Now()
				if _, err := sys.client.PushTicks(ctx, tr.names[t], ticks); err != nil {
					sys.stop()
					return err
				}
				switch {
				case round == 1 && req%2 == 0:
					restoreNs += int64(time.Since(start))
				case round == 1:
					plainNs += int64(time.Since(start))
				}
			}
		}
		sys.stop()
	}
	files, err := filepath.Glob(filepath.Join(dir, "snap-0", "*.snap"))
	if err != nil {
		return err
	}
	var size int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			size += fi.Size()
		}
	}
	m["serve.snapshot_bytes"] = ratio(float64(size), float64(len(files)))
	m["serve.restore_ms_per_session"] = float64(restoreNs-plainNs) / float64(tenants) / 1e6
	return nil
}
