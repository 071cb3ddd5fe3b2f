// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics, and a per-layer ledger timed from outside the layers.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run . -workload serve-replay -seed 1 -seconds 14 -trace 0 [-out runs.ndjson]
//	go run . -workload serve-novel  -seed 1 -seconds 14 -trace 1
//	go run . -compare a.ndjson b.ndjson
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"mdes/internal/mat"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo says what ran and where; every output file carries it.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke,omitempty"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SIMD       bool    `json:"mat_simd"`
	TmpFS      string  `json:"tmp_fs"`
}

// runRecord is everything one run knows about itself; -out appends it as one
// JSON line, and -compare reads files of them.
type runRecord struct {
	runInfo
	Phases []*phaseStats `json:"phases"`
	// Other holds other estimates of the reported quantities — whole-phase
	// means, pooled percentiles — for reading next to the fast-decile ones.
	Other    map[string]float64 `json:"other_estimates,omitempty"`
	Samples  map[string]int     `json:"samples"`
	Notes    map[string]string  `json:"notes,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: serve-replay, serve-novel, cluster-standby or train-detect")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 14, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics, spans written to -trace-out")
	out := fs.String("out", "", "append the run record to this file as one JSON line")
	traceOut := fs.String("trace-out", "", "where a -trace 1 run writes its spans (default .bench_build/trace-<workload>.json)")
	smoke := fs.Bool("smoke", false, "tiny sizes, for tests")
	compare := fs.Bool("compare", false, "compare two run-record files (or print one file's spreads): -compare a.ndjson [b.ndjson]")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration read by -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(*specPath, fs.Args(), stdout, stderr)
	}
	spec, ok := findWorkload(*workload)
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench -workload <serve-replay|serve-novel|cluster-standby|train-detect> -seed <n> -seconds <s> -trace <0|1> [-out file]")
		return 2
	}

	// Everything the run writes stays under .bench_build/ in the current
	// directory (the checkout root when started through run.sh).
	buildDir := ".bench_build"
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmpRoot, err := os.MkdirTemp(buildDir, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmpRoot)
	rp := runParams{
		spec: spec, sz: fullSizes,
		tmpRoot: tmpRoot, traceOut: *traceOut,
		info: runInfo{
			Workload: spec.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke,
			Commit: vcsRevision(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			SIMD: mat.SIMDEnabled(), TmpFS: fsType(tmpRoot),
		},
	}
	if *smoke {
		rp.sz = smokeSizes
	}
	if rp.traceOut == "" {
		rp.traceOut = filepath.Join(buildDir, "trace-"+spec.name+".json")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var o *outcome
	if spec.offline {
		o, err = runOffline(ctx, rp)
	} else {
		o, err = runServing(ctx, rp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	rec, err := buildRecord(rp, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printRecord(stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// buildRecord selects the run's declared metrics — end-to-end for an untraced
// run, per-layer for a traced one — and attaches the environment. An
// end-to-end metric the run did not produce is a bug; a per-layer metric a
// workload does not exercise reads 0 and is listed under notes.
func buildRecord(rp runParams, o *outcome) (*runRecord, error) {
	decls := endToEnd
	if rp.info.Trace {
		decls = perLayer
	}
	metrics := make(map[string]metricValue, len(decls))
	notExercised := ""
	for _, d := range decls {
		v, ok := o.metrics[d.name]
		if !ok {
			if !rp.info.Trace {
				return nil, fmt.Errorf("workload %s produced no %s", rp.spec.name, d.name)
			}
			notExercised += d.name + " "
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if notExercised != "" {
		o.notes["not_exercised"] = notExercised
	}
	if o.attempted == 0 {
		o.attempted = 1
	}
	return &runRecord{
		runInfo: rp.info,
		Phases:  o.phases, Other: o.other, Samples: o.samples, Notes: o.notes, Failures: o.failures,
		result: result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics},
	}, nil
}

// vcsRevision is the commit the binary was built from, when the toolchain
// could stamp one (a checkout that is not a git repository has none).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printRecord(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  commit %s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Commit)
	fmt.Fprintf(w, "%s  nproc %d  GOMAXPROCS %d  mat SIMD %v  tmp fs %s\n", rec.GoVersion, rec.NumCPU, rec.GOMAXPROCS, rec.SIMD, rec.TmpFS)
	for _, ps := range rec.Phases {
		fmt.Fprintf(w, "phase %-22s %7.3f s  sent %6d  ok %6d  failed %d  refused %d  degraded %d  ticks %d\n",
			ps.Name, ps.Seconds, ps.Sent, ps.Succeeded, ps.Failed, ps.Refused, ps.Degraded, ps.Ticks)
	}
	decls := endToEnd
	if rec.Trace {
		decls = perLayer
	}
	for _, d := range decls {
		mv := rec.Metrics[d.name]
		line := fmt.Sprintf("%-38s %16.6g %s", d.name, mv.Value, mv.Unit)
		if n, ok := rec.Samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, k := range sortedKeys(rec.Other) {
		fmt.Fprintf(w, "other estimate %-34s %12.6g\n", k, rec.Other[k])
	}
	for _, k := range sortedKeys(rec.Notes) {
		fmt.Fprintf(w, "note %s: %s\n", k, rec.Notes[k])
	}
	fmt.Fprintf(w, "output checks: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one reported
		return err
	}
	return f.Close()
}
