package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mdes"
	"mdes/internal/plantgen"
	"mdes/internal/seqio"
)

// plant is the generated dataset, split the way the paper splits its month:
// training days, one dev day, test days with injected anomaly days.
type plant struct {
	train, dev, test *seqio.Dataset
	minutesPerDay    int
	// anomalyTestDays are 0-based indices into the test split's days.
	anomalyTestDays []int
}

func makePlant(sz sizes) (*plant, error) {
	days := sz.trainDays + 1 + sz.testDays
	first := sz.trainDays + 1 // 0-based index of the first test day
	pc := plantgen.Default()
	pc.Sensors, pc.Days, pc.MinutesPerDay = sz.sensors, days, sz.minutesPerDay
	pc.Clusters, pc.Popular = sz.clusters, 1
	pc.ConstantFrac, pc.MultiStateFrac, pc.RareEventFrac = 0, 0.07, 0.13
	pc.Anomalies = []plantgen.AnomalySpec{
		{Day: first + 2, Severity: 1}, // 1-based: second test day
		{Day: first + sz.testDays - 1, Severity: 1},
	}
	pc.Precursors = nil
	pc.Seed = plantSeed
	ds, _, err := plantgen.Generate(pc)
	if err != nil {
		return nil, err
	}
	train, dev, test, err := ds.Split(sz.trainDays*sz.minutesPerDay, sz.minutesPerDay)
	if err != nil {
		return nil, err
	}
	return &plant{
		train: train, dev: dev, test: test, minutesPerDay: sz.minutesPerDay,
		anomalyTestDays: []int{1, sz.testDays - 2},
	}, nil
}

// benchConfig is the one model shape every workload trains: all pairs share
// one hidden/layer shape, the screen keeps the topK strongest candidates, and
// the valid range admits every trained pair so K = topK relationships are
// scored per emit regardless of how the BLEUs fall.
func benchConfig(sz sizes, seed int64) mdes.Config {
	return mdes.Config{
		Language: mdes.LanguageConfig{
			WordLen: wordLen, WordStride: 1, SentenceLen: sentenceLen, SentenceStride: sentenceLen,
		},
		NMT: mdes.NMTConfig{
			Embed: sz.hidden, Hidden: sz.hidden, Layers: 1,
			LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: sz.steps, BatchSize: 8, MaxDecodeLen: sentenceLen + 2,
		},
		ValidRange:      mdes.Range{Lo: 0, Hi: 100},
		PopularInDegree: sz.sensors / 2,
		Screen:          mdes.ScreenConfig{TopK: sz.topK},
		Seed:            seed,
	}
}

// tickLog is a compact event log: per sensor, the event alphabet and one
// alphabet index per tick.
type tickLog struct {
	sensors  []string
	alphabet [][]string
	idx      [][]uint8
	n        int
}

// newTickLog compacts the first n ticks of ds.
func newTickLog(ds *seqio.Dataset, n int) *tickLog {
	l := &tickLog{n: n}
	for _, seq := range ds.Sequences {
		alpha := seq.Alphabet()
		rank := make(map[string]uint8, len(alpha))
		for i, e := range alpha {
			rank[e] = uint8(i)
		}
		col := make([]uint8, n)
		for t := 0; t < n; t++ {
			col[t] = rank[seq.Events[t]]
		}
		l.sensors = append(l.sensors, seq.Sensor)
		l.alphabet = append(l.alphabet, alpha)
		l.idx = append(l.idx, col)
	}
	return l
}

// traffic derives every tenant's tick sequence from the log and the seed.
// Replay traffic is the log rotated by a seed-chosen whole number of
// sentence strides and wrapped, the same for every tenant, so after one lap
// every sentence window has been seen. Novel traffic gives each tenant its
// own rotation and replaces a fixed share of (tick, sensor) cells with a
// uniformly drawn alphabet symbol, so windows rarely repeat.
type traffic struct {
	log     *tickLog
	seed    uint64
	novel   bool
	perturb float64
	names   []string
}

func newTraffic(log *tickLog, w workloadSpec, sz sizes, seed int64) *traffic {
	tr := &traffic{log: log, seed: uint64(seed), novel: w.novel, perturb: sz.novelPerturb}
	for i := 0; i < w.tenants; i++ {
		tr.names = append(tr.names, fmt.Sprintf("t%02d-%x", i, mix(tr.seed, uint64(i), 0, 0)&0xffff))
	}
	return tr
}

// mix is a splitmix64-style hash of four words: the traffic's only source of
// randomness, so a tick's content is a pure function of (seed, tenant, tick,
// sensor) and logs never need to be stored.
func mix(a, b, c, d uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb ^ d*0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rotation is the log offset tenant starts at, a whole number of strides.
func (tr *traffic) rotation(tenant int) int {
	strides := uint64(tr.log.n / strideTicks)
	if tr.novel {
		return int(mix(tr.seed, uint64(tenant), 1, 0)%strides) * strideTicks
	}
	return int(mix(tr.seed, 0, 1, 0)%strides) * strideTicks
}

// event returns sensor s's event at the tenant's tick t.
func (tr *traffic) event(tenant, rot, t, s int) string {
	alpha := tr.log.alphabet[s]
	if tr.novel {
		h := mix(tr.seed, uint64(tenant), uint64(t)+2, uint64(s))
		if float64(h>>40)/float64(1<<24) < tr.perturb {
			return alpha[(h&0xffff)%uint64(len(alpha))]
		}
	}
	return alpha[tr.log.idx[s][(rot+t)%tr.log.n]]
}

// fill writes the tenant's ticks [from, from+len(ticks)) into the reusable
// tick maps.
func (tr *traffic) fill(ticks []map[string]string, tenant, from int) {
	rot := tr.rotation(tenant)
	for i, m := range ticks {
		for s, name := range tr.log.sensors {
			m[name] = tr.event(tenant, rot, from+i, s)
		}
	}
}

func newTickMaps(n, sensors int) []map[string]string {
	out := make([]map[string]string, n)
	for i := range out {
		out[i] = make(map[string]string, sensors)
	}
	return out
}

// body renders the tenant's ticks [from, from+n) as the NDJSON request body
// serve.Client would send.
func (tr *traffic) body(tenant, from, n int) []byte {
	ticks := newTickMaps(n, len(tr.log.sensors))
	tr.fill(ticks, tenant, from)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, m := range ticks {
		_ = enc.Encode(m) // a map[string]string always encodes
	}
	return buf.Bytes()
}

// dataset materialises the tenant's first n ticks for the reference Detect.
func (tr *traffic) dataset(tenant, n int) *seqio.Dataset {
	rot := tr.rotation(tenant)
	ds := &seqio.Dataset{}
	for s, name := range tr.log.sensors {
		ev := make([]string, n)
		for t := range ev {
			ev[t] = tr.event(tenant, rot, t, s)
		}
		ds.Sequences = append(ds.Sequences, seqio.Sequence{Sensor: name, Events: ev})
	}
	return ds
}
