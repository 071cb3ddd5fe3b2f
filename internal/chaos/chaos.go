// Package chaos adversarially proves the repo's durability claims. The
// checkpoint journal and the serve-layer snapshots promise that a crash at
// any instant loses at most the work in flight and that recovery resumes
// bit-for-bit; this package runs those paths over faultfs.InjectFS, kills
// them at every kind of IO point — torn writes, failed fsyncs, lost
// directory entries — and asserts the promise with checksums instead of
// trusting the comments.
//
// Three soaks, mirroring the three durable artefacts:
//
//   - TrainSoak:   train → crash at a random IO op → resume, until the
//     resumed model's weight checksum equals an uninterrupted run's.
//   - JournalSoak: append pair records → crash → recover, asserting the
//     journal is always an exact prefix of what was written.
//   - ServeSoak:   multi-tenant ingest → crash → restart, asserting every
//     recovered tenant snapshot sits at a request boundary with reference
//     content, and the restarted server continues each stream bit-for-bit.
//
// Every soak is deterministic in its seed: iteration k of seed s injects
// the same faults at the same operations on every machine.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"mdes"
	"mdes/internal/checkpoint"
	"mdes/internal/faultfs"
	"mdes/internal/seqio"
)

// soakConfig is deliberately tiny — the soaks retrain pairs dozens of times,
// so per-pair cost dominates wall clock. ValidRange [0, 100] makes every
// edge a valid relationship regardless of converged quality, so the
// detection structure (and therefore the serve soak's scoring work) is
// deterministic even at these sizes.
func soakConfig() mdes.Config {
	return mdes.Config{
		Language: mdes.LanguageConfig{
			WordLen: 3, WordStride: 1, SentenceLen: 4, SentenceStride: 4,
		},
		NMT: mdes.NMTConfig{
			Embed: 8, Hidden: 8, Layers: 1,
			Dropout: 0, LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: 40, BatchSize: 4, MaxDecodeLen: 8,
		},
		ValidRange:      mdes.Range{Lo: 0, Hi: 100},
		PopularInDegree: 3,
		Seed:            7,
	}
}

// soakDataset generates three sensors — a and b coupled, c noise — so the
// soak model has 6 ordered pairs and a non-trivial relationship graph.
func soakDataset(seed int64, ticks int) *seqio.Dataset {
	rng := rand.New(rand.NewSource(seed))
	a := make([]string, ticks)
	b := make([]string, ticks)
	c := make([]string, ticks)
	state := "ON"
	for t := 0; t < ticks; t++ {
		if rng.Float64() < 0.15 {
			if state == "ON" {
				state = "OFF"
			} else {
				state = "ON"
			}
		}
		a[t] = state
		if t == 0 {
			b[t] = state
		} else {
			b[t] = a[t-1]
		}
		if rng.Float64() < 0.5 {
			c[t] = "ON"
		} else {
			c[t] = "OFF"
		}
	}
	return &seqio.Dataset{Sequences: []seqio.Sequence{
		{Sensor: "a", Events: a},
		{Sensor: "b", Events: b},
		{Sensor: "c", Events: c},
	}}
}

// fixture is the shared training corpus and crash-free reference model; the
// expensive part of every soak, built once per process.
var (
	fixOnce  sync.Once
	fixTrain *seqio.Dataset
	fixDev   *seqio.Dataset
	fixFw    *mdes.Framework
	fixModel *mdes.Model
	fixSum   uint64
	fixErr   error
)

func fixture() error {
	fixOnce.Do(func() { fixErr = buildFixture() })
	return fixErr
}

func buildFixture() error {
	train, dev, _, err := soakDataset(11, 220).Split(150, 70)
	if err != nil {
		return err
	}
	fw, err := mdes.New(soakConfig())
	if err != nil {
		return err
	}
	model, err := fw.Train(context.Background(), train, dev)
	if err != nil {
		return err
	}
	sum, err := modelChecksum(model)
	fixTrain, fixDev, fixFw, fixModel, fixSum = train, dev, fw, model, sum
	return err
}

// modelChecksum is the FNV-64a of the model's serialised form — weights,
// graph, languages, configuration — minus the per-pair wall-clock runtimes,
// which vary run to run by construction. Two models with equal checksums
// went through bit-identical training.
func modelChecksum(m *mdes.Model) (uint64, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return 0, err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, err
	}
	delete(doc, "runtimes")
	canon, err := json.Marshal(doc) // map marshalling sorts keys
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	_, _ = h.Write(canon) // hash.Hash.Write never fails
	return h.Sum64(), nil
}

// standingFaults is the background fault mix for soak iterations: frequent
// enough to exercise every error path across a sweep, rare enough that
// workloads usually make progress between faults.
func standingFaults() faultfs.Faults {
	return faultfs.Faults{ShortWrite: 0.03, WriteENOSPC: 0.02, SyncFail: 0.03, RenameFail: 0.05}
}

// TrainSoakReport summarises one TrainSoak run.
type TrainSoakReport struct {
	Iterations int
	Crashes    int // attempts killed at the injected crash point
	Faulted    int // attempts aborted by a standing (non-crash) fault
	TornTails  int // resumes that found and dropped a torn journal record
	Resumed    int // pair models restored from journals, summed over attempts
	Checksum   uint64
}

// TrainSoak runs iters crash/resume cycles of checkpointed pair training:
// each iteration arms the crash point at a fresh random IO operation, lets
// the run die, recovers the filesystem, and resumes until training
// completes — then asserts the resumed model is bit-identical (FNV weight
// checksum) to the crash-free reference and that the journal holds exactly
// one intact record per pair. Any divergence returns an error naming the
// iteration and seed.
func TrainSoak(ctx context.Context, seed int64, iters int) (TrainSoakReport, error) {
	rep := TrainSoakReport{Iterations: iters}
	if err := fixture(); err != nil {
		return rep, err
	}
	rep.Checksum = fixSum
	const path = "ckpt/train.journal"

	// Probe run: count the IO operations of an uninterrupted checkpointed
	// run, so crash points sweep the whole op range.
	probe := faultfs.NewInject(seed, faultfs.Faults{})
	m, err := fixFw.TrainWithOptions(ctx, fixTrain, fixDev, mdes.TrainOptions{
		Checkpoint: path, FS: probe,
	})
	if err != nil {
		return rep, fmt.Errorf("chaos: probe train: %w", err)
	}
	if sum, err := modelChecksum(m); err != nil || sum != fixSum {
		return rep, fmt.Errorf("chaos: probe train diverged from reference (checksum %x vs %x): %v", sum, fixSum, err)
	}
	totalOps := probe.Ops()
	pairCount := len(fixTrain.Sequences) * (len(fixTrain.Sequences) - 1)

	rng := rand.New(rand.NewSource(seed))
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		ifs := faultfs.NewInject(seed*1_000_003+int64(it), standingFaults())
		ifs.CrashAfter(1 + rng.Int63n(totalOps))
		resume := false
		for attempt := 0; ; attempt++ {
			if attempt > 12 {
				return rep, fmt.Errorf("chaos: iteration %d: training did not converge in %d attempts", it, attempt)
			}
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			var torn, sawResume bool
			var resumed int
			opts := mdes.TrainOptions{
				Checkpoint: path, Resume: resume, FS: ifs,
				Progress: func(p mdes.TrainProgress) {
					if p.Src == "" && !sawResume {
						sawResume = true
						torn = p.TornTail
						resumed = p.Resumed
					}
				},
			}
			m, err := fixFw.TrainWithOptions(ctx, fixTrain, fixDev, opts)
			resume = true
			if err != nil {
				if errors.Is(err, faultfs.ErrCrashed) {
					rep.Crashes++
				} else {
					rep.Faulted++
				}
				// Reboot: recover the disk and stop injecting standing
				// faults so the retry makes progress; the crash point stays
				// behind us.
				ifs.Recover()
				ifs.SetFaults(faultfs.Faults{})
				continue
			}
			if torn {
				rep.TornTails++
			}
			rep.Resumed += resumed
			// The run can finish with the disk crashed: the journal's deferred
			// Close discards its error, so a crash point landing on the final
			// close doesn't fail training. Every record was already fsynced,
			// so recovery must still find a complete journal — recover (and
			// stop injecting) before the audit reads it back.
			if ifs.Crashed() {
				rep.Crashes++
				ifs.Recover()
			}
			ifs.SetFaults(faultfs.Faults{})
			sum, err := modelChecksum(m)
			if err != nil {
				return rep, err
			}
			if sum != fixSum {
				return rep, fmt.Errorf("chaos: iteration %d: resumed model checksum %x != reference %x", it, sum, fixSum)
			}
			j, err := checkpoint.OpenFS(ifs, path)
			if err != nil {
				return rep, fmt.Errorf("chaos: iteration %d: reopen journal: %w", it, err)
			}
			n, torn2 := len(j.Records()), j.Torn()
			_ = j.Close() // read-only audit
			if n != pairCount || torn2 {
				return rep, fmt.Errorf("chaos: iteration %d: journal holds %d/%d records (torn=%v) after a complete run", it, n, pairCount, torn2)
			}
			break
		}
	}
	return rep, nil
}
