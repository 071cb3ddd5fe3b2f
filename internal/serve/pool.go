package serve

import (
	"errors"
	"sync"
	"time"

	"mdes"
)

// ErrScoreDeadline reports that a sentence window could not be scored within
// the configured per-tick deadline. The stream wraps it; handlers match it
// with errors.Is to answer the tick degraded instead of stalling the NDJSON
// stream.
var ErrScoreDeadline = errors.New("serve: scoring deadline exceeded")

// scorePool fans pairwise relationship scoring out across the sessions
// currently processing a tick. Each completed sentence window produces one
// ScoreJob per valid relationship; all sessions share the same bounded worker
// set, so concurrency is governed globally rather than per tenant.
//
// There is one path at every precision: a job goes onto the work channel and
// a worker calls its Run. Jobs are not grouped by pair model — an emit holds K
// jobs for K different models, so same-model batches measured 1.0 jobs each
// (bench/README.md, "jobs/batch").
type scorePool struct {
	tasks chan scoreTask
	wg    sync.WaitGroup // workers
	met   *metrics

	// dscratch recycles the deadline path's job copies and shadow rows.
	dscratch sync.Pool
}

// scoreTask is one job plus the row to store its score in and the barrier
// that releases the submitting session once the whole window is scored.
type scoreTask struct {
	job  *mdes.ScoreJob
	row  []float64
	done *sync.WaitGroup
}

// deadlineScratch is the scoreWithin working set: a private copy of the jobs
// and a shadow row, reused across deadline calls instead of allocated per
// emit. It is only returned to the pool after every worker touching it has
// finished, so an abandoned batch can never race the next borrower.
type deadlineScratch struct {
	jobs   []mdes.ScoreJob
	shadow []float64
}

func newScorePool(workers int, met *metrics) *scorePool {
	p := &scorePool{
		// Buffer a few jobs per worker so sessions rarely block while handing
		// work out; admission control bounds total exposure.
		tasks: make(chan scoreTask, workers*4),
		met:   met,
	}
	p.dscratch.New = func() any { return new(deadlineScratch) }
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker scores one job at a time until the pool closes.
func (p *scorePool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		start := time.Now()
		t.row[t.job.Index()] = t.job.Run()
		p.met.scoreLatency.observe(time.Since(start))
		t.done.Done()
	}
}

// score is installed as each stream's scorer (Stream.SetScorer): it submits
// every job — the window's score-memo misses — and waits for the batch.
// Workers never block on anything other than the job channel, so submission
// always drains — sessions hold their own mutex while in here, but no pool
// worker ever takes a session mutex.
func (p *scorePool) score(jobs []mdes.ScoreJob, row []float64) error {
	var done sync.WaitGroup
	done.Add(len(jobs))
	for i := range jobs {
		p.tasks <- scoreTask{job: &jobs[i], row: row, done: &done}
	}
	done.Wait()
	return nil
}

// scoreWithin is score with a deadline: if the batch is not fully scored
// within d it returns ErrScoreDeadline and the caller's scratch is left
// untouched. A window answered wholly from the score memo never gets here
// (the stream calls no scorer for it), so it cannot miss the deadline. The
// jobs and row the stream hands a scorer are reused on the next emit, so the
// deadline path works on pooled copies: abandoned workers finish into the
// shadow row and their results are discarded (their scores still reach the
// pair models' memos — they are correct, just late), never racing the
// stream's next window. The scratch only returns to the pool once every
// abandoned worker is done with it.
func (p *scorePool) scoreWithin(jobs []mdes.ScoreJob, row []float64, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	sc := p.dscratch.Get().(*deadlineScratch)
	sc.jobs = append(sc.jobs[:0], jobs...)
	if cap(sc.shadow) < len(row) {
		sc.shadow = make([]float64, len(row))
	}
	shadow := sc.shadow[:len(row)]
	var done sync.WaitGroup
	done.Add(len(sc.jobs))
	for i := range sc.jobs {
		select {
		case p.tasks <- scoreTask{job: &sc.jobs[i], row: shadow, done: &done}:
		case <-timer.C:
			// Unsubmitted tasks will never run; settle their barrier entries
			// so the reclaim goroutine below terminates.
			submitted := i
			for ; i < len(sc.jobs); i++ {
				done.Done()
			}
			if submitted == 0 {
				p.dscratch.Put(sc)
			} else {
				go func() { done.Wait(); p.dscratch.Put(sc) }()
			}
			return ErrScoreDeadline
		}
	}
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
		// Only the jobs' columns: the rest of row holds the window's memo
		// hits, which the shadow row never saw.
		for i := range sc.jobs {
			k := sc.jobs[i].Index()
			row[k] = shadow[k]
		}
		p.dscratch.Put(sc)
		return nil
	case <-timer.C:
		go func() { <-finished; p.dscratch.Put(sc) }()
		return ErrScoreDeadline
	}
}

// close stops the workers after the queue drains. Callers must guarantee no
// further score calls.
func (p *scorePool) close() {
	close(p.tasks)
	p.wg.Wait()
}
