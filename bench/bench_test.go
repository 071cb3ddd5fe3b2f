package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mdes/internal/lang"
)

func testTraffic(t *testing.T, sz sizes, w workloadSpec, seed int64) (*plant, *traffic) {
	t.Helper()
	p, err := makePlant(sz)
	if err != nil {
		t.Fatal(err)
	}
	logTicks := 2 * p.minutesPerDay / strideTicks * strideTicks
	return p, newTraffic(newTickLog(p.test, logTicks), w, sz, seed)
}

func mustWorkload(t *testing.T, name string) workloadSpec {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// Same seed, byte-identical tick logs; another seed, different ones.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range []string{"serve-replay", "serve-novel"} {
		w := mustWorkload(t, name)
		_, a := testTraffic(t, smokeSizes, w, 7)
		_, b := testTraffic(t, smokeSizes, w, 7)
		_, c := testTraffic(t, smokeSizes, w, 8)
		same, differs := true, false
		for tenant := range a.names {
			ab, bb, cb := a.body(tenant, 0, 90), b.body(tenant, 0, 90), c.body(tenant, 0, 90)
			same = same && bytes.Equal(ab, bb) && a.names[tenant] == b.names[tenant]
			differs = differs || !bytes.Equal(ab, cb)
		}
		if !same {
			t.Errorf("%s: same seed produced different tick logs", name)
		}
		if !differs {
			t.Errorf("%s: different seeds produced identical tick logs", name)
		}
	}
}

// The reference dataset, the request bodies and the tick maps are three views
// of one sequence.
func TestTrafficViewsAgree(t *testing.T) {
	_, tr := testTraffic(t, smokeSizes, mustWorkload(t, "serve-novel"), 3)
	ds := tr.dataset(1, 4*strideTicks)
	ticks := newTickMaps(strideTicks, len(tr.log.sensors))
	tr.fill(ticks, 1, 2*strideTicks)
	for i, tick := range ticks {
		for _, seq := range ds.Sequences {
			if got, want := tick[seq.Sensor], seq.Events[2*strideTicks+i]; got != want {
				t.Fatalf("tick %d sensor %s: fill %q, dataset %q", i, seq.Sensor, got, want)
			}
		}
	}
	var first map[string]string
	if err := json.Unmarshal(bytes.SplitN(tr.body(1, 2*strideTicks, strideTicks), []byte("\n"), 2)[0], &first); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) != fmt.Sprint(ticks[0]) {
		t.Fatalf("body %v, fill %v", first, ticks[0])
	}
}

// repeatShare replays `requests` requests per tenant through per-sensor
// languages built from the training split and returns the share of encoded
// source sentences some tenant had already produced for that sensor — the
// property the translation cache keys on. The first `skip` requests per tenant
// are fed but not counted (the warm-up).
func repeatShare(t *testing.T, p *plant, tr *traffic, skip, requests int) float64 {
	t.Helper()
	cfg := benchConfig(fullSizes, 1).Language
	seen := map[string]map[string]bool{}
	total, repeats := 0, 0
	for _, seq := range p.train.Sequences {
		if seq.IsConstant() {
			continue
		}
		l, err := lang.Build(seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen[seq.Sensor] = map[string]bool{}
		for tenant := range tr.names {
			tenantSeq, _ := tr.dataset(tenant, spanTicks+(skip+requests)*strideTicks).Find(seq.Sensor)
			sents, err := l.SentencesFor(tenantSeq)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range sents {
				key := fmt.Sprint(s)
				if i >= skip {
					total++
					if seen[seq.Sensor][key] {
						repeats++
					}
				}
				seen[seq.Sensor][key] = true
			}
		}
	}
	return float64(repeats) / float64(total)
}

// The two serving traffics really sit on either side of the translation cache.
func TestWorkloadsSeparateOnSentenceRepeats(t *testing.T) {
	replay := mustWorkload(t, "serve-replay")
	p, tr := testTraffic(t, fullSizes, replay, 5)
	lap := tr.log.n / strideTicks
	if got := repeatShare(t, p, tr, lap+2, 200); got <= 0.9 {
		t.Errorf("serve-replay sentence repeat share %.3f, want > 0.9", got)
	}
	p, tr = testTraffic(t, fullSizes, mustWorkload(t, "serve-novel"), 5)
	if got := repeatShare(t, p, tr, 0, 200); got >= 0.2 {
		t.Errorf("serve-novel sentence repeat share %.3f, want < 0.2", got)
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// The fast side of a rate is its high end, of a time its low end.
	if hi, lo := fastSide(v, 10, true), fastSide(v, 25, false); hi != 90 || lo != 25 {
		t.Errorf("fastSide(1..100): decile of a rate %v, quartile of a time %v, want 90 and 25", hi, lo)
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Errorf("single sample p99 = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestSupportedPercentile(tc.n); got != tc.want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// driver's spread check uses. Expected values computed with Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3}, 1, 3, 4},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

// Open-loop latency runs from when a request was due, not from when it was
// sent; the schedule depends only on the rate.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	if got := dueAt(250, 500); got != 500*time.Millisecond {
		t.Errorf("dueAt(250, 500/s) = %v", got)
	}
	due := time.Unix(100, 0)
	lat, late := openLoopLatency(due, due.Add(30*time.Millisecond), 5*time.Millisecond)
	if lat != 35*time.Millisecond || late != 30*time.Millisecond {
		t.Errorf("late send: latency %v late %v, want 35ms 30ms", lat, late)
	}
	// A generator that wakes early has not made the request early.
	lat, late = openLoopLatency(due, due.Add(-time.Millisecond), 5*time.Millisecond)
	if lat != 5*time.Millisecond || late != 0 {
		t.Errorf("early wake: latency %v late %v, want 5ms 0", lat, late)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "stream.push", ID: 1, Start: 0, End: 100},
		{Name: "score.job", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "score.job", ID: 3, Parent: 1, Start: 25, End: 50},  // overlaps the first: counted once
		{Name: "score.job", ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{Name: "bleu", ID: 5, Parent: 2, Start: 12, End: 20},       // grandchild: subtracted from its parent only
		{Name: "stream.push", ID: 6, Start: 200, End: 230},         // no children
	}
	want := []int64{100 - (20 + 20 + 10), 20 - 8, 25, 30, 8, 30}
	if got := selfTimes(spans); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestHistQuantile(t *testing.T) {
	before := scrape{`h_bucket{le="0.001"}`: 10, `h_bucket{le="0.01"}`: 10, `h_bucket{le="+Inf"}`: 10}
	after := scrape{`h_bucket{le="0.001"}`: 60, `h_bucket{le="0.01"}`: 110, `h_bucket{le="+Inf"}`: 110}
	if got := after.histQuantile(before, "h", 0.25); math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("p25 = %v, want 0.0005", got)
	}
	if got := after.histQuantile(before, "h", 0.75); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("p75 = %v, want 0.0055", got)
	}
	if got := after.histQuantile(before, "missing", 0.5); got != 0 {
		t.Errorf("missing histogram = %v", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005, c * 0.995} }
	noisy := func(c float64) []float64 { return []float64{c * 0.6, c * 0.8, c, c * 1.2, c * 1.4, c} }
	for _, tc := range []struct {
		name       string
		base, cand []float64
		higher     bool
		want       verdict
	}{
		{"throughput up", steady(100), steady(120), true, verdictBetter},
		{"throughput down", steady(100), steady(85), true, verdictWorse},
		{"throughput flat", steady(100), steady(97), true, verdictWithin},
		{"latency down", steady(10), steady(8), false, verdictBetter},
		{"latency up", steady(10), steady(12), false, verdictWorse},
		{"spread wider than bound", noisy(100), steady(85), true, verdictUnresolved},
		{"single runs", []float64{100}, []float64{80}, true, verdictWorse},
	} {
		if got, _ := judge(tc.base, tc.cand, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload and metric the program emits is declared in BENCHMARK.json,
// with the same unit, and nothing is declared that it does not emit.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, decls []metricDecl, names, units []string) {
		if len(names) != len(decls) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(names), len(decls))
		}
		for i, d := range decls {
			if i >= len(names) {
				break
			}
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	var names, units []string
	setup := false
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
}

// chdir moves the test into dir and back when it ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

// runBench runs the program in a scratch directory and returns its parsed
// last line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	chdir(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil || len(raw) != 4 {
		t.Fatalf("last line is not the four-key result object: %q (%v)", lines[len(lines)-1], err)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res, stdout.String()
}

func checkResult(t *testing.T, res result, decls []metricDecl, mayBeZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		mv, ok := res.Metrics[d.name]
		if !ok || mv.Unit != d.unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || (!mayBeZero && mv.Value <= 0) {
			t.Errorf("metric %s: %+v (present %v)", d.name, mv, ok)
		}
	}
}

// One smoke-sized run per workload and mode: the output checks pass, the last
// line has the contract's shape, and every declared metric is there.
func TestSmokeRuns(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    string
	}{
		{"serve-replay", "0"},
		{"serve-novel", "1"},
		{"cluster-standby", "1"},
		{"train-detect", "0"},
		{"train-detect", "1"},
	} {
		t.Run(tc.workload+"-trace"+tc.trace, func(t *testing.T) {
			res, out := runBench(t, "-smoke", "-workload", tc.workload, "-seed", "3", "-seconds", "1", "-trace", tc.trace)
			if tc.trace == "0" {
				checkResult(t, res, endToEnd, false)
				return
			}
			checkResult(t, res, perLayer, true)
			if !strings.Contains(out, "trace.overhead_share") {
				t.Error("traced run does not print trace.overhead_share")
			}
			var tf traceFile
			data, err := os.ReadFile(filepath.Join(".bench_build", "trace-"+tc.workload+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil || tf.Workload != tc.workload {
				t.Fatalf("trace file: %v %+v", err, tf.Workload)
			}
			if tc.workload != "train-detect" && (len(tf.Passes["client"]) == 0 || len(tf.Passes["stream"]) == 0) {
				t.Error("trace file lacks the client or stream pass")
			}
			// The layers separate as designed: only the durable workload pays
			// for snapshots and replication, and f32 scoring goes through
			// the pool's batches.
			durable := tc.workload == "cluster-standby"
			if got := res.Metrics["serve.snapshot_us_per_request"].Value != 0; got != durable {
				t.Errorf("snapshot cost non-zero: %v, want %v", got, durable)
			}
			if got := res.Metrics["serve.repl_shipped"].Value > 0; got != durable {
				t.Errorf("replication shipped: %v, want %v", got, durable)
			}
			if tc.workload != "train-detect" && res.Metrics["serve.jobs_per_batch"].Value < 1 {
				t.Error("f32 scoring must go through the pool's batches")
			}
		})
	}
}

// In a directory holding none of the repository the program must fail without
// printing a result. (run.sh fails earlier still: the build cannot resolve the
// parent module.)
func TestCompareNeedsBenchmarkJSON(t *testing.T) {
	chdir(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", "a.ndjson"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
