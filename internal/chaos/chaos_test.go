package chaos

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// soakIters returns the iteration budget: CHAOS_ITERS when set (the CI
// chaos-soak job pins it), otherwise 25 — enough for the crash sweep to land
// in every phase of each workload.
func soakIters(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("CHAOS_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_ITERS=%q", v)
		}
		return n
	}
	return 25
}

func TestTrainCrashResumeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := TrainSoak(context.Background(), 1, soakIters(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("train soak: %+v", rep)
	if rep.Crashes == 0 {
		t.Fatal("crash point never fired; the soak exercised nothing")
	}
	if rep.Resumed == 0 {
		t.Fatal("no attempt ever resumed pairs from the journal; the soak exercised nothing")
	}
}

func TestJournalAppendRecoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := JournalSoak(context.Background(), 2, soakIters(t), OpenJournal)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("journal soak: %+v", rep)
	if rep.Crashes == 0 {
		t.Fatal("crash point never fired; the soak exercised nothing")
	}
	if rep.Replayed == 0 {
		t.Fatal("no recovery ever replayed a record; the soak exercised nothing")
	}
}

// TestBrokenRecoveryIsCaught certifies the soak itself: recovery that skips
// the torn-tail truncate (appends land after crash garbage) must make
// JournalSoak fail. If this test ever finds the sabotaged path passing, the
// harness has lost its teeth.
func TestBrokenRecoveryIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := JournalSoak(context.Background(), 2, soakIters(t), OpenJournalNoTruncate)
	if err == nil {
		t.Fatalf("soak passed against recovery with no torn-tail truncate: %+v", rep)
	}
	t.Logf("broken recovery caught: %v", err)
}

func TestClusterKillReplicaSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := ClusterSoak(context.Background(), 4, soakIters(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cluster soak: %+v", rep)
	if rep.HardKills == 0 {
		t.Fatal("no iteration hard-killed a replica; the soak exercised nothing")
	}
	if rep.Drains == 0 || rep.Moved == 0 {
		t.Fatal("no iteration drained a replica's tenants; the soak exercised nothing")
	}
	if rep.Redirects == 0 {
		t.Fatal("the client never followed an ownership redirect; the soak exercised nothing")
	}
}

func TestServeCrashRestoreSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := ServeSoak(context.Background(), 3, soakIters(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serve soak: %+v", rep)
	if rep.Crashes == 0 {
		t.Fatal("crash point never fired; the soak exercised nothing")
	}
	if rep.Restored == 0 {
		t.Fatal("no tenant ever restored from a snapshot; the soak exercised nothing")
	}
}

// TestSoakScriptsReplayTheirSchedules draws the cluster soaks' fault scripts
// without starting a server and pins the counters each CI seed's soak
// reports: a change to a script generator that moves a schedule — a draw
// added, dropped or reordered — fails here first.
func TestSoakScriptsReplayTheirSchedules(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		gen  func(*rand.Rand) script
		want ClusterSoakReport
	}{
		{"cluster", 4, clusterScript, ClusterSoakReport{Iterations: 25, HardKills: 12, Drains: 13}},
		{"disk-loss", 5, diskLossScript, ClusterSoakReport{Iterations: 25, HardKills: 25, Promotions: 25}},
		{"partition", 6, partitionScript, ClusterSoakReport{Iterations: 25, Partitions: 39, OneWay: 17, Flaps: 14, Promotions: 39}},
	} {
		got := ClusterSoakReport{Iterations: 25}
		for _, sc := range drawScripts(tc.seed, 25, tc.gen) {
			sc.tally(&got)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s seed %d: scripts tally %+v, want %+v", tc.name, tc.seed, got, tc.want)
		}
	}
}
