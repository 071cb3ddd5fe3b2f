package chaos

import (
	"context"
	"sort"
	"testing"
	"time"
)

func TestDiskLossFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := DiskLossSoak(context.Background(), 5, soakIters(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("disk-loss soak: iters=%d promotions=%d shipsHome=%d net=%+v",
		rep.Iterations, rep.Promotions, rep.ShipsHome, rep.Net)
	if rep.Promotions == 0 {
		t.Fatal("no outage window was ever served from a standby copy; the soak exercised nothing")
	}
	if rep.ShipsHome == 0 {
		t.Fatal("no tenant ever shipped home to a wiped owner; the soak exercised nothing")
	}
	if rep.Net.Delays == 0 && rep.Net.Duplicates == 0 && rep.Net.TruncatedReq == 0 {
		t.Fatal("the fault injector never fired on the cluster path; the soak exercised nothing")
	}
	if len(rep.ReplLag) == 0 || len(rep.PromotionLatency) == 0 {
		t.Fatalf("no lag/latency samples collected: %d repl, %d promotion", len(rep.ReplLag), len(rep.PromotionLatency))
	}
}

func TestPartitionHealSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := PartitionSoak(context.Background(), 6, soakIters(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("partition soak: iters=%d partitions=%d oneWay=%d flaps=%d promotions=%d net=%+v",
		rep.Iterations, rep.Partitions, rep.OneWay, rep.Flaps, rep.Promotions, rep.Net)
	if rep.Promotions == 0 {
		t.Fatal("no outage window was ever served from a standby copy; the soak exercised nothing")
	}
	if rep.Partitions == 0 || rep.Net.Partitioned == 0 {
		t.Fatal("no partition ever refused a round trip; the soak exercised nothing")
	}
	if rep.Iterations >= 10 && (rep.OneWay == 0 || rep.Flaps == 0) {
		t.Fatalf("seeded schedule never drew a one-way (%d) or flap (%d) window across %d iterations",
			rep.OneWay, rep.Flaps, rep.Iterations)
	}
}

// durationQuantile returns the q-th quantile of samples in milliseconds.
func durationQuantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return float64(s[idx]) / float64(time.Millisecond)
}

// BenchmarkStandbySoak runs disk-loss failover cycles and reports the
// replication-lag and promotion-latency distributions; CI's partition-soak
// job runs it after the standby soaks.
func BenchmarkStandbySoak(b *testing.B) {
	var replLag, promotion []time.Duration
	for i := 0; i < b.N; i++ {
		rep, err := DiskLossSoak(context.Background(), int64(100+i), 1)
		if err != nil {
			b.Fatal(err)
		}
		replLag = append(replLag, rep.ReplLag...)
		promotion = append(promotion, rep.PromotionLatency...)
	}
	b.ReportMetric(durationQuantile(replLag, 0.50), "repl_lag_p50_ms")
	b.ReportMetric(durationQuantile(replLag, 0.99), "repl_lag_p99_ms")
	b.ReportMetric(durationQuantile(promotion, 0.50), "promotion_p50_ms")
	b.ReportMetric(durationQuantile(promotion, 0.99), "promotion_p99_ms")
}
