package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is the outcome of comparing one (workload, end-to-end metric) pair
// between a baseline set of runs and a candidate set.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWithin     verdict = "within-bound"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved" // run-to-run spread wider than the bound
)

// judge applies a metric's bound: the candidate is worse (or better) when its
// median moved against (or with) the metric's direction by more than `bound`
// of the baseline's median. When either side's interquartile spread, as a
// share of its median, exceeds the bound the difference cannot be told from
// noise and the pair is unresolved. A side with a single run has no spread to
// judge by and is taken at its value.
func judge(base, cand []float64, higherIsBetter bool, bound float64) (verdict, float64) {
	mb, mc := median(base), median(cand)
	if mb == 0 {
		return verdictUnresolved, 0
	}
	change := (mc - mb) / mb // signed share of the baseline
	gain := change
	if !higherIsBetter {
		gain = -change
	}
	switch {
	case spreadShare(base) > bound || spreadShare(cand) > bound:
		return verdictUnresolved, change
	case gain < -bound:
		return verdictWorse, change
	case gain > bound:
		return verdictBetter, change
	}
	return verdictWithin, change
}

// readRuns loads a file of run records, one JSON object per line, keeping the
// untraced ones: only end-to-end metrics are compared.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			runs = append(runs, rec)
		}
	}
	return runs, sc.Err()
}

// valuesOf collects one metric's values over a workload's runs.
func valuesOf(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, mv.Value)
		}
	}
	return out
}

// runCompare prints one row per (workload, end-to-end metric). With one file
// it reports each pair's spread against its bound; with two it judges the
// second against the first. It returns non-zero when any pair is worse, any
// run failed its output checks, or (one file) a spread exceeds its bound.
func runCompare(specPath string, files []string, stdout, stderr io.Writer) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(stderr, "usage: bench -compare a.ndjson [b.ndjson]")
		return 2
	}
	bf, err := loadBenchmarkFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sets := make([][]runRecord, len(files))
	bad := 0
	for i, path := range files {
		if sets[i], err = readRuns(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, r := range sets[i] {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(stdout, "%s: %s seed %d failed %d of %d output checks\n", path, r.Workload, r.Seed, r.Failed, r.Attempted)
				bad++
			}
		}
	}
	if len(files) == 1 {
		fmt.Fprintf(stdout, "%-16s %-24s %4s %14s %9s %7s  %s\n", "workload", "metric", "n", "median", "spread", "bound", "verdict")
	} else {
		fmt.Fprintf(stdout, "%-16s %-24s %4s %14s %14s %9s %9s %9s %7s  %s\n", "workload", "metric", "n", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	}
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a := valuesOf(sets[0], w.Name, m.Name)
			if len(a) == 0 {
				continue
			}
			if len(files) == 1 {
				sp := spreadShare(a)
				v := "steady"
				switch {
				case len(a) < 2:
					v = "too few runs"
				case sp > m.Bound:
					v = "SPREAD OVER BOUND"
					if m.Name != "setup_s" { // set-up's spread is reported, not gated
						bad++
					}
				case sp > m.Bound/3:
					v = "over a third of the bound"
				}
				fmt.Fprintf(stdout, "%-16s %-24s %4d %14.6g %8.2f%% %6.1f%%  %s\n", w.Name, m.Name, len(a), median(a), sp*100, m.Bound*100, v)
				continue
			}
			b := valuesOf(sets[1], w.Name, m.Name)
			if len(b) == 0 {
				continue
			}
			v, change := judge(a, b, m.Better == "higher", m.Bound)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-24s %4d %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, min(len(a), len(b)), median(a), median(b), change*100, spreadShare(a)*100, spreadShare(b)*100, m.Bound*100, v)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
