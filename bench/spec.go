package main

import (
	"encoding/json"
	"fmt"
	"os"

	"mdes"
)

// workloadSpec is one traffic mix and the server configuration it runs on.
// The "why" of each workload lives in BENCHMARK.json and README.md.
type workloadSpec struct {
	name      string
	precision mdes.Precision
	replicas  int  // serve.Server instances; >1 turns cluster mode on
	durable   bool // SnapshotDir + StandbyDir under the bench temp dir
	tenants   int
	novel     bool // perturbed per-tenant logs instead of the shared replayed log
	offline   bool // no server: TrainWithOptions + Detect + solo Stream
	// scoreWorkers sizes the servers' scoring pool; 0 is the server's default
	// (GOMAXPROCS). The traced single-goroutine passes set 1, so the handler
	// pass scores as serially as the stream pass it is compared with.
	scoreWorkers int
	// openRate is the open-loop request rate (requests/s over all clients),
	// frozen at about 20 % of the seed commit's closed-loop capacity on the
	// 2-core reference box: light enough that requests seldom overlap, so the
	// latency read is the system's and not the queue's (at 40 % a request
	// arrived about as often as one completed, and p90 spread three times as
	// wide from run to run). It is a property of the workload, not a tunable.
	openRate float64
}

var workloads = []workloadSpec{
	{name: "serve-replay", precision: mdes.PrecisionF64, replicas: 1, tenants: 16, openRate: 400},
	{name: "serve-novel", precision: mdes.PrecisionF32, replicas: 1, tenants: 8, novel: true, openRate: 250},
	{name: "cluster-standby", precision: mdes.PrecisionF32, replicas: 3, durable: true, tenants: 24, openRate: 180},
	{name: "train-detect", offline: true},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// sizes scales the system under test. full is what BENCHMARK.json measures;
// smoke keeps the package tests fast.
type sizes struct {
	sensors, clusters   int
	minutesPerDay       int
	trainDays, testDays int // one dev day sits between them
	topK, hidden, steps int
	setups              int // set-up repetitions; setup_s is their median
	tracePerTenant      int // requests per tenant in each traced pass
	streamLaps          int // train-detect: laps of the test split through the solo Stream
	microIters          int // iterations of each layer micro-measurement
	novelPerturb        float64
	// fillRequests is how many requests per tenant serve-novel sends, untimed,
	// before its heap is read: enough to fill the translation caches about half
	// way (8 tenants x 250 requests against a cap of 4096 sentences per pair),
	// few enough that no cache is dropped on the way.
	fillRequests int
	// detectRequests is the length, in requests' worth of ticks, of the tenant
	// prefix a serving workload times its reference Detect on.
	detectRequests int
}

var fullSizes = sizes{
	sensors: 16, clusters: 3, minutesPerDay: 360, trainDays: 3, testDays: 6,
	topK: 40, hidden: 16, steps: 60,
	setups: 3, tracePerTenant: 40, streamLaps: 12, microIters: 2000,
	novelPerturb: 0.6, fillRequests: 250, detectRequests: 400,
}

var smokeSizes = sizes{
	sensors: 8, clusters: 2, minutesPerDay: 120, trainDays: 3, testDays: 4,
	topK: 8, hidden: 12, steps: 60,
	setups: 1, tracePerTenant: 4, streamLaps: 2, microIters: 50,
	novelPerturb: 0.6, fillRequests: 4, detectRequests: 8,
}

// The bench language: a sentence spans wordLen + (sentenceLen-1) = 16 ticks,
// so a binary sensor has 2^16 possible source sentences, sixteen times the
// per-pair translation cache's 4096 entries: a run of serve-novel can keep
// missing it. Words are short enough (16 possible for a binary sensor) that
// the training split's vocabulary covers nearly all of them, so perturbed
// ticks make new sentences rather than a run of <unk>. One request carries
// one sentence stride of ticks, so in steady state it yields one detection
// point.
const (
	wordLen     = 4
	sentenceLen = 13
	spanTicks   = wordLen + sentenceLen - 1
	strideTicks = sentenceLen
	modelName   = "bench"
	// plantSeed fixes the plant (sensor kinds, couplings, noise tiers) so the
	// system under test is the same model shape on every seed; --seed drives
	// the traffic (rotation, per-tenant perturbation, tenant names) and, on
	// train-detect, the NMT initialisation.
	plantSeed = 20200629
	trainSeed = 1
)

type metricDecl struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run prints; perLayer the ones a
// --trace 1 run prints. BENCHMARK.json declares the same names (checked by
// TestSchemaMatchesBenchmarkJSON).
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ticks_per_s", "1/s"},
	{"point_latency_p50_ms", "ms"},
	{"point_latency_p90_ms", "ms"},
	{"heap_live_mb", "MB"},
	{"train_pairs_per_s", "1/s"},
	{"detect_sentences_per_s", "1/s"},
}

var perLayer = []metricDecl{
	// client (serve.Client)
	{"client.request_us", "us"},
	{"client.transport_us_per_request", "us"},
	{"client.point_latency_p99_ms", "ms"},
	{"client.sched_late_p99_ms", "ms"},
	{"client.requests_sent", "count"},
	{"client.requests_failed", "count"},
	{"client.requests_refused", "count"},
	{"client.redirects", "count"},
	// serve
	{"serve.handler_us_per_request", "us"},
	{"serve.self_us_per_request", "us"},
	{"serve.jobs_per_batch", "count"},
	{"serve.score_call_mean_us", "us"},
	{"serve.score_call_p50_us", "us"},
	{"serve.score_call_p99_us", "us"},
	{"serve.score_queue_depth_max", "count"},
	{"serve.rejected_total", "count"},
	{"serve.degraded_ticks", "count"},
	// serve durability
	{"serve.snapshot_us_per_request", "us"},
	{"serve.snapshot_bytes", "bytes"},
	{"serve.restore_ms_per_session", "ms"},
	{"serve.repl_enqueued", "count"},
	{"serve.repl_coalesced", "count"},
	{"serve.repl_dropped", "count"},
	{"serve.repl_shipped", "count"},
	{"serve.repl_lag_p50_ms", "ms"},
	{"serve.repl_lag_p99_ms", "ms"},
	{"serve.redirects_total", "count"},
	// cluster
	{"cluster.ring_owner_ns", "ns"},
	{"cluster.handoff_encode_us", "us"},
	{"cluster.handoff_decode_us", "us"},
	{"cluster.handoff_bytes", "bytes"},
	{"cluster.repl_offer_ns", "ns"},
	// stream (root mdes package)
	{"stream.push_ns_per_tick", "ns"},
	{"stream.emit_us_per_point", "us"},
	{"stream.self_us_per_point", "us"},
	{"stream.jobs_per_point", "count"},
	{"stream.sentence_repeat_share", "share"},
	{"stream.sentence_working_set", "count"},
	{"stream.score_share_of_handler", "share"},
	{"stream.snapshot_us", "us"},
	{"stream.restore_us", "us"},
	// infer
	{"infer.translate_us_per_sentence", "us"},
	{"infer.f32.batch1_us_per_sentence", "us"},
	{"infer.f32.batch32_us_per_sentence", "us"},
	{"infer.int8.batch32_us_per_sentence", "us"},
	{"infer.model_bytes_f32", "bytes"},
	{"infer.model_bytes_int8", "bytes"},
	{"infer.decode_macs_per_sentence", "count"},
	{"infer.weight_bytes_per_sentence", "bytes"},
	// nmt / nn
	{"nmt.score_us_per_sentence", "us"},
	{"nmt.train_ms_per_pair", "ms"},
	{"nmt.train_tokens_per_s", "1/s"},
	{"nmt.pairs_failed", "count"},
	// mat
	{"mat.f64.mulvec_gflops", "gflop/s"},
	{"mat.f32.mulmat_gflops", "gflop/s"},
	{"mat.q8.mulmat_gops", "gop/s"},
	{"mat.simd_enabled", "bool"},
	// bleu, anomaly
	{"bleu.sentence_ns", "ns"},
	{"anomaly.evaluate_ns_per_point", "ns"},
	// pairmine, lang, checkpoint, model IO
	{"pairmine.screen_ms", "ms"},
	{"pairmine.pairs_scored_per_s", "1/s"},
	{"pairmine.selected_share", "share"},
	{"lang.build_ms", "ms"},
	{"checkpoint.journal_append_us", "us"},
	{"checkpoint.frame_ns", "ns"},
	{"model.load_ms", "ms"},
	{"model.quantize_ms", "ms"},
	{"model.save_bytes", "bytes"},
	// runtime
	{"runtime.cpu_s_per_ktick", "s"},
	{"runtime.allocs_per_tick", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
