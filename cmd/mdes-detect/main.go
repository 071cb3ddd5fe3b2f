// Command mdes-detect runs online anomaly detection (Algorithm 2) with a
// model saved by mdes-train over a CSV test log, printing the per-timestamp
// anomaly score a_t, the broken relationships W_t, and a fault diagnosis for
// the worst timestamp.
//
// Usage:
//
//	mdes-detect -model model.json -in test.csv [-threshold 0.5] [-alerts]
//	generator | mdes-detect -model model.json -in - -format json | jq .score
//
// -in - reads the CSV from stdin, and -format json emits one NDJSON point
// per timestamp in the same wire format mdes-serve streams, so the tool
// composes with pipes and the serving stack's tooling.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mdes"
	"mdes/internal/seqio"
	"mdes/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdes-detect:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdes-detect", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "model file from mdes-train")
	in := fs.String("in", "", "test CSV event log (- for stdin)")
	threshold := fs.Float64("threshold", 0.5, "anomaly-score threshold to flag")
	showAlerts := fs.Bool("alerts", false, "print broken relationships per flagged timestamp")
	format := fs.String("format", "text", "output format: text or json (NDJSON, one point per line)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in == "" {
		return fmt.Errorf("usage: mdes-detect -model model.json -in test.csv")
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown -format %q: want text or json", *format)
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := mdes.Load(mf)
	_ = mf.Close() // read-only; Load's error is the one that matters
	if err != nil {
		return err
	}
	var input io.Reader = os.Stdin
	if *in != "-" {
		tf, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer tf.Close()
		input = tf
	}
	ds, err := seqio.ReadCSV(input)
	if err != nil {
		return err
	}

	points, err := model.Detect(context.Background(), ds)
	if err != nil {
		return err
	}

	if *format == "json" {
		var line []byte
		for _, p := range points {
			if line, err = serve.AppendPoint(line[:0], p); err != nil {
				return err
			}
			if _, err := stdout.Write(line); err != nil {
				return err
			}
		}
		return nil
	}

	var worst mdes.Point
	for _, p := range points {
		mark := " "
		if p.Score >= *threshold {
			mark = "!"
		}
		fmt.Fprintf(stdout, "t=%4d a_t=%.3f broken=%d/%d %s\n", p.T, p.Score, len(p.Broken), p.Valid, mark)
		if *showAlerts && p.Score >= *threshold {
			for _, a := range p.Broken {
				fmt.Fprintf(stdout, "      %s->%s f=%.1f < s=%.1f\n", a.Src, a.Tgt, a.TestScore, a.TrainScore)
			}
		}
		if p.Score > worst.Score {
			worst = p
		}
	}
	if worst.Score >= *threshold {
		fmt.Fprintf(stdout, "\nfault diagnosis at t=%d (a_t=%.3f):\n", worst.T, worst.Score)
		diag := model.Diagnose(worst)
		for _, c := range diag.Clusters {
			fmt.Fprintf(stdout, "  cluster %v: %d/%d relationships broken\n",
				c.Members, c.BrokenEdges, c.TotalEdges)
		}
	}
	return nil
}
