package main

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"mdes"
	"mdes/internal/serve"
)

// pointDigest is what the bench keeps of each streamed detection point: enough
// to prove it equal to the reference point, small enough that the bench's own
// bookkeeping stays negligible in heap_live_mb.
type pointDigest struct {
	t      int
	score  float64
	broken int
	hash   uint64 // over every alert's pair and test score
}

func digestOf(p serve.WirePoint) pointDigest {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range p.Broken {
		h.Write([]byte(a.Src))
		h.Write([]byte{0})
		h.Write([]byte(a.Tgt))
		bits := math.Float64bits(a.Test)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return pointDigest{t: p.T, score: p.Score, broken: len(p.Broken), hash: h.Sum64()}
}

func digestsOf(points []mdes.Point) []pointDigest {
	out := make([]pointDigest, len(points))
	for i, p := range points {
		out[i] = digestOf(serve.PointWire(p))
	}
	return out
}

// tenantState is one tenant's progress; exactly one client goroutine owns it
// at a time, which is also what keeps the tenant's requests in order.
type tenantState struct {
	idx    int
	name   string
	sent   int // ticks acknowledged by the server
	points []pointDigest
	dead   bool // a request failed; the stream position is unknown, stop sending
}

// The benchmark runs on shared hosts whose speed drops by tens of percent for
// a fraction of a second to tens of seconds at a time. Interference only ever
// slows work down, so a phase is cut into short slices, each slice is measured
// on its own, and the phase reports a quantile near the fast end of its
// slices: at the decile, the 90th percentile of a rate and the 10th of a time.
// That is a quantile, not a best case — a tenth of the slices were at least
// that fast — and as long as a tenth of the run saw the host at its normal
// speed it does not move with how much of the rest was disturbed, which the
// mean and the median do.

// loadSlice is the length of one closed-loop slice; open-loop slices are
// twice as long so each holds enough requests for its own percentiles. A round
// of the measured phase is two of the first and one of the second.
const (
	loadSlice    = 250 * time.Millisecond
	openSliceLen = 2 * loadSlice
	roundLen     = 2*loadSlice + openSliceLen
)

// fastSide returns the quantile `pct` percent in from the fast end of v: the
// (100-pct)th percentile when higher is better, the pct-th when lower is.
func fastSide(v []float64, pct float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		pct = 100 - pct
	}
	return percentile(sortedCopy(v), pct)
}

// Serving phases report the fast decile of their slices. The offline workload
// reports the fast quartile of its laps and rounds: an eighth of the solo
// stream's laps have a p90 a tenth below the rest (fewer collections land on
// their emitting pushes), so a decile sits on the edge between the two modes
// and flips with the host's mood; a quartile sits inside the main one.
const (
	servingFastPct = 10
	offlineFastPct = 25
)

// sliceStats is one slice of a load phase.
type sliceStats struct {
	Seconds  float64 `json:"seconds"`
	Requests int     `json:"requests"`
	Ticks    int     `json:"ticks"`
	CPU      float64 `json:"cpu_s"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	Traced   bool    `json:"traced,omitempty"`
}

// phaseStats tallies one load phase.
type phaseStats struct {
	Name      string       `json:"name"`
	Seconds   float64      `json:"seconds"`
	Sent      int          `json:"requests_sent"`
	Succeeded int          `json:"requests_succeeded"`
	Failed    int          `json:"requests_failed"`
	Refused   int          `json:"requests_refused"`
	Degraded  int          `json:"points_degraded"`
	Ticks     int          `json:"ticks"`
	Slices    []sliceStats `json:"slices,omitempty"`
	// latenciesMs are per-request: in the open loop from the due time, in the
	// closed loop from the send. lateMs is how far behind its due time each
	// open-loop request was sent.
	latenciesMs []float64
	lateMs      []float64
	spans       []span
}

// absorb appends another run of the same phase: its tally and its slices.
func (ps *phaseStats) absorb(o *phaseStats) {
	ps.merge(o)
	ps.Slices = append(ps.Slices, o.Slices...)
}

func (ps *phaseStats) merge(o *phaseStats) {
	ps.Sent += o.Sent
	ps.Succeeded += o.Succeeded
	ps.Failed += o.Failed
	ps.Refused += o.Refused
	ps.Degraded += o.Degraded
	ps.Ticks += o.Ticks
	ps.Seconds += o.Seconds
	ps.latenciesMs = append(ps.latenciesMs, o.latenciesMs...)
	ps.lateMs = append(ps.lateMs, o.lateMs...)
	ps.spans = append(ps.spans, o.spans...)
}

// perSlice returns fn's value for every slice whose Traced flag equals traced
// and that did any work.
func (ps *phaseStats) perSlice(traced bool, fn func(sliceStats) float64) []float64 {
	var out []float64
	for _, s := range ps.Slices {
		if s.Traced == traced && s.Ticks > 0 {
			out = append(out, fn(s))
		}
	}
	return out
}

func sliceTicksPerS(s sliceStats) float64   { return float64(s.Ticks) / s.Seconds }
func sliceCPUPerKtick(s sliceStats) float64 { return s.CPU / float64(s.Ticks) * 1e3 }
func sliceP50(s sliceStats) float64         { return s.P50Ms }
func sliceP90(s sliceStats) float64         { return s.P90Ms }

// loadGen drives a system with the workload's traffic from `clients`
// goroutines, each owning the tenants congruent to its index.
type loadGen struct {
	sys     *system
	tr      *traffic
	tenants []*tenantState
	clients int
	cursor  []int // per client: how many requests it has started, for round-robin
	epoch   time.Time
}

func newLoadGen(sys *system, tr *traffic, clients int) *loadGen {
	lg := &loadGen{sys: sys, tr: tr, clients: clients, cursor: make([]int, clients), epoch: time.Now()}
	for i, name := range tr.names {
		lg.tenants = append(lg.tenants, &tenantState{idx: i, name: name})
	}
	return lg
}

// send pushes the tenant's next stride of ticks and folds the outcome into ps.
// It returns the wall time the request took.
func (lg *loadGen) send(ctx context.Context, ts *tenantState, ticks []map[string]string, ps *phaseStats, traced bool) time.Duration {
	lg.tr.fill(ticks, ts.idx, ts.sent)
	start := time.Now()
	points, err := lg.sys.client.PushTicksRetry(ctx, ts.name, ticks)
	took := time.Since(start)
	if traced {
		s := int64(start.Sub(lg.epoch))
		ps.spans = append(ps.spans, span{Name: "client.request", ID: len(ps.spans) + 1, Req: ps.Sent, Start: s, End: s + int64(took)})
	}
	ps.Sent++
	if err != nil {
		var busy *serve.BusyError
		var redir *serve.RedirectError
		if errors.As(err, &busy) || errors.As(err, &redir) {
			ps.Refused++
		} else {
			ps.Failed++
		}
		ts.dead = true
		return took
	}
	ps.Succeeded++
	ps.Ticks += len(ticks)
	ts.sent += len(ticks)
	for _, p := range points {
		if p.Degraded {
			ps.Degraded++
		}
		ts.points = append(ts.points, digestOf(p))
	}
	return took
}

// nextTenant returns the tenant client c sends to next, round-robin over the
// tenants it owns, or nil when all of them are dead.
func (lg *loadGen) nextTenant(c int) *tenantState {
	owned := (len(lg.tenants) - c + lg.clients - 1) / lg.clients
	for tries := 0; tries < owned; tries++ {
		ts := lg.tenants[c+(lg.cursor[c]%owned)*lg.clients]
		lg.cursor[c]++
		if !ts.dead {
			return ts
		}
	}
	return nil
}

// fanOut runs body on every client goroutine and returns their merged tally
// and the wall time the slowest took.
func (lg *loadGen) fanOut(body func(c int, ps *phaseStats)) *phaseStats {
	parts := make([]*phaseStats, lg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < lg.clients; c++ {
		parts[c] = &phaseStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, parts[c])
		}(c)
	}
	wg.Wait()
	total := &phaseStats{}
	for _, p := range parts {
		total.merge(p)
	}
	total.Seconds = time.Since(start).Seconds()
	return total
}

// slice runs one slice of a load phase and folds it into the phase, keeping
// the slice's own rate, CPU time and latency percentiles.
func (ps *phaseStats) slice(run func() *phaseStats) {
	cpu0 := processCPUSeconds()
	part := run()
	lat := sortedCopy(part.latenciesMs)
	ps.Slices = append(ps.Slices, sliceStats{
		Seconds: part.Seconds, Requests: part.Sent, Ticks: part.Ticks, CPU: processCPUSeconds() - cpu0,
		P50Ms: percentile(lat, 50), P90Ms: percentile(lat, 90), Traced: len(part.spans) > 0,
	})
	ps.merge(part)
}

// sendEach sends `requests` requests per tenant, round-robin, closed-loop: the
// fixed-count phases (warm-up, fill) that bring the system to a known state.
func (lg *loadGen) sendEach(ctx context.Context, name string, requests int) *phaseStats {
	total := lg.fanOut(func(c int, ps *phaseStats) {
		ticks := newTickMaps(strideTicks, len(lg.tr.log.sensors))
		for i := c; i < len(lg.tenants)*requests; i += lg.clients {
			if ts := lg.nextTenant(c); ts != nil {
				lg.send(ctx, ts, ticks, ps, false)
			}
		}
	})
	total.Name = name
	return total
}

// closedSlice has every client send its next request as soon as the previous
// one completes, for loadSlice. A traced slice records a client.request span
// per request.
func (lg *loadGen) closedSlice(ctx context.Context, traced bool) *phaseStats {
	return lg.fanOut(func(c int, ps *phaseStats) {
		ticks := newTickMaps(strideTicks, len(lg.tr.log.sensors))
		deadline := time.Now().Add(loadSlice)
		for time.Now().Before(deadline) {
			ts := lg.nextTenant(c)
			if ts == nil {
				return
			}
			took := lg.send(ctx, ts, ticks, ps, traced)
			ps.latenciesMs = append(ps.latenciesMs, took.Seconds()*1e3)
		}
	})
}

// alternate runs `rounds` rounds of the measured phase. A round is two
// closed-loop slices and one open-loop slice, roundLen in all: the two loops
// take turns so each samples the whole phase rather than one stretch of it, and
// a host that is slow for a few seconds costs both loops a few slices instead
// of costing one loop most of its run. With trace, the open loop and every
// second closed-loop slice record client.request spans, so traced and untraced
// slices see the same host conditions.
func (lg *loadGen) alternate(ctx context.Context, openRate float64, rounds int, trace bool) (closed, open *phaseStats) {
	closed, open = &phaseStats{Name: "closed-loop"}, &phaseStats{Name: "open-loop"}
	for r := 0; r < rounds; r++ {
		closed.slice(func() *phaseStats { return lg.closedSlice(ctx, false) })
		closed.slice(func() *phaseStats { return lg.closedSlice(ctx, trace) })
		open.slice(func() *phaseStats { return lg.openSlice(ctx, openRate, trace) })
	}
	return closed, open
}

// dueAt is when request k (0-based, over all clients) of an open-loop slice at
// `rate` requests/s is due, relative to the slice start. Client c sends
// requests c, c+clients, c+2·clients, …: the schedule is fixed up front and
// never slows when the system does.
func dueAt(k int, rate float64) time.Duration {
	return time.Duration(float64(k) / rate * float64(time.Second))
}

// openLoopLatency charges a request from its due time: the time it waited to
// be sent (late) plus the time it took once sent.
func openLoopLatency(due, sentAt time.Time, took time.Duration) (latency, late time.Duration) {
	late = sentAt.Sub(due)
	if late < 0 {
		late = 0
	}
	return late + took, late
}

// openSlice sends requests on the fixed schedule for openSliceLen. Latency runs
// from the instant a request was due, not from when it was actually sent, so a
// stall charges every request queued behind it.
func (lg *loadGen) openSlice(ctx context.Context, rate float64, traced bool) *phaseStats {
	start := time.Now().Add(2 * time.Millisecond) // let every client reach its first wait
	return lg.fanOut(func(c int, ps *phaseStats) {
		ticks := newTickMaps(strideTicks, len(lg.tr.log.sensors))
		for i := 0; ; i++ {
			due := dueAt(i*lg.clients+c, rate)
			if due >= openSliceLen {
				return
			}
			ts := lg.nextTenant(c)
			if ts == nil {
				return
			}
			dueTime := start.Add(due)
			if wait := time.Until(dueTime); wait > 0 {
				time.Sleep(wait)
			}
			sentAt := time.Now()
			took := lg.send(ctx, ts, ticks, ps, traced)
			lat, late := openLoopLatency(dueTime, sentAt, took)
			ps.latenciesMs = append(ps.latenciesMs, lat.Seconds()*1e3)
			ps.lateMs = append(ps.lateMs, late.Seconds()*1e3)
		}
	})
}
