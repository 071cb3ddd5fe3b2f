package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mdes"
	"mdes/internal/serve"
)

// trainModel runs the offline phase on the plant and publishes the model at
// the workload's scoring precision.
func trainModel(ctx context.Context, p *plant, sz sizes, seed int64, prec mdes.Precision) (*mdes.Model, time.Duration, error) {
	fw, err := mdes.New(benchConfig(sz, seed))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	m, err := fw.TrainWithOptions(ctx, p.train, p.dev, mdes.TrainOptions{})
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	if err := m.Quantize(prec); err != nil {
		return nil, 0, err
	}
	return m, took, nil
}

// cloneModel round-trips the model through its wire format. The clone shares
// nothing with the original — in particular its translation caches are cold —
// so it serves both as the independent reference for output checks and as
// identical starting state for each traced pass.
func cloneModel(m *mdes.Model) (*mdes.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return mdes.Load(&buf)
}

// replica is one serve.Server mounted on a loopback listener.
type replica struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when hs.Serve returns
}

// system is the running system under test: replicas, the routing client that
// drives them, and the temp dir durable state lives in.
type system struct {
	spec     workloadSpec
	model    *mdes.Model
	replicas []*replica
	client   *serve.Client
	loadTr   *http.Transport // load-generator connections
	peerTr   *http.Transport // replica-to-replica connections
}

// startSystem mounts the workload's replicas on 127.0.0.1:0 listeners inside
// this process and returns once every replica answers /readyz. A durable
// workload keeps its snapshot and standby directories under stateDir;
// starting again on the same stateDir restores what was written there.
func startSystem(spec workloadSpec, model *mdes.Model, stateDir string, conns int) (*system, error) {
	sys := &system{
		spec: spec, model: model,
		loadTr: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		peerTr: &http.Transport{MaxIdleConnsPerHost: 2},
	}
	listeners := make([]net.Listener, spec.replicas)
	urls := make([]string, spec.replicas)
	// closeFrom releases the listeners no http.Server owns yet.
	closeFrom := func(i int) {
		for _, l := range listeners[i:] {
			if l != nil {
				_ = l.Close() // abandoning start-up; the original error is reported
			}
		}
	}
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeFrom(0)
			return nil, err
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range listeners {
		opts := serve.Options{Models: map[string]*mdes.Model{modelName: model}, ScoreWorkers: spec.scoreWorkers}
		if spec.replicas > 1 {
			opts.Peers, opts.Advertise = urls, urls[i]
			opts.ClusterClient = &http.Client{Transport: sys.peerTr}
			opts.RetryAfter = 10 * time.Millisecond
		}
		var err error
		if spec.durable {
			opts.SnapshotDir = filepath.Join(stateDir, fmt.Sprintf("snap-%d", i))
			err = os.MkdirAll(opts.SnapshotDir, 0o755)
			if spec.replicas > 1 && err == nil {
				// serve.New does not create the standby store's directory;
				// without it every replicated copy fails to persist.
				opts.StandbyDir = filepath.Join(stateDir, fmt.Sprintf("standby-%d", i))
				err = os.MkdirAll(opts.StandbyDir, 0o755)
			}
		}
		var srv *serve.Server
		if err == nil {
			srv, err = serve.New(opts)
		}
		if err != nil {
			closeFrom(i)
			sys.stop()
			return nil, err
		}
		r := &replica{srv: srv, hs: &http.Server{Handler: srv}, url: urls[i], done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(r.done)
			_ = r.hs.Serve(ln) // returns ErrServerClosed on Shutdown
		}(ln)
		sys.replicas = append(sys.replicas, r)
	}
	sys.client = &serve.Client{
		HTTPClient: &http.Client{Transport: sys.loadTr},
		Retry:      serve.RetryPolicy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
	}
	if spec.replicas > 1 {
		sys.client.Peers = urls
	} else {
		sys.client.BaseURL = urls[0]
	}
	if err := sys.waitReady(10 * time.Second); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

func (sys *system) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, r := range sys.replicas {
		for {
			code, _, err := sys.get(r.url + "/readyz")
			if err == nil && code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s never became ready (last: %d %v)", r.url, code, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// get fetches a URL over the load-generator transport.
func (sys *system) get(url string) (int, []byte, error) {
	resp, err := sys.client.HTTPClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stop drains and shuts every replica down and waits for its listener
// goroutine. Durable state stays where it was written.
func (sys *system) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, r := range sys.replicas {
		r.srv.BeginDrain()
	}
	for _, r := range sys.replicas {
		_ = r.hs.Shutdown(ctx)  // best effort: the process is tearing the system down
		_ = r.srv.Shutdown(ctx) // final snapshots are not part of any measurement
		<-r.done
	}
	sys.loadTr.CloseIdleConnections()
	sys.peerTr.CloseIdleConnections()
}

// scrape sums the Prometheus-text metrics of every replica: plain samples by
// name, histogram buckets by name{le}.
type scrape map[string]float64

func (sys *system) scrape() (scrape, error) {
	out := scrape{}
	for _, r := range sys.replicas {
		code, body, err := sys.get(r.url + "/metrics")
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("scrape %s: %d %v", r.url, code, err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			out[line[:sp]] += v
		}
	}
	return out, nil
}

// delta returns the counter increase between two scrapes.
func (after scrape) delta(before scrape, name string) float64 {
	return after[name] - before[name]
}

// histQuantile interpolates the q-quantile (0..1), in seconds, of the
// histogram `name` from the bucket increases between two scrapes.
func (after scrape) histQuantile(before scrape, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(k[len(prefix):], `"}`)
		le, err := strconv.ParseFloat(leStr, 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].le < bs[j-1].le; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0
	}
	want := q * total
	lo, loCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= want {
			if b.le > 1e300 { // +Inf bucket: report the last finite bound
				return lo
			}
			if b.cum == loCum {
				return b.le
			}
			return lo + (b.le-lo)*(want-loCum)/(b.cum-loCum)
		}
		lo, loCum = b.le, b.cum
	}
	return lo
}
