package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdes/internal/faultfs"
)

// gateFS stops the first call on one path after arm, until release: the
// call signals entered and waits. While failing is set, every rename onto
// the path fails instead, so a save of it fails.
type gateFS struct {
	faultfs.FS
	path    string
	armed   atomic.Bool
	failing atomic.Bool
	entered chan struct{}
	release chan struct{}
	opened  sync.Once
}

func newGateFS(tenant string) *gateFS {
	return &gateFS{
		FS:      faultfs.NewInject(1, faultfs.Faults{}),
		path:    filepath.Join("snaps", hex.EncodeToString([]byte(tenant))+".snap"),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
}

// open releases the held call, once.
func (g *gateFS) open() { g.opened.Do(func() { close(g.release) }) }

func (g *gateFS) hold(path string) {
	if path == g.path && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
}

func (g *gateFS) ReadFile(name string) ([]byte, error) {
	g.hold(name)
	return g.FS.ReadFile(name)
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	g.hold(name)
	return g.FS.OpenFile(name, flag, perm)
}

func (g *gateFS) Rename(oldpath, newpath string) error {
	if newpath == g.path && g.failing.Load() {
		return errors.New("gateFS: rename refused")
	}
	g.hold(newpath)
	return g.FS.Rename(oldpath, newpath)
}

func (g *gateFS) Remove(name string) error {
	g.hold(name)
	return g.FS.Remove(name)
}

// async runs f on its own goroutine; the channel yields its error.
func async(f func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	return done
}

// settle gives a request racing a held store call time to run as far as it
// can: until it is admitted and then finishes, or 200 ms pass. A request
// that must wait for the held call is still waiting afterwards.
func settle(t *testing.T, srv *Server, admitted int, done <-chan error) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(srv.slots) < admitted; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("request not admitted")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("request finished while the tenant's store call was held (err %v)", err)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestSlowStoreReadDoesNotStallOtherTenants holds tenant a's restore read.
// Another tenant's request must not wait for it: the read runs under a's
// own claim, not the registry lock.
func TestSlowStoreReadDoesNotStallOtherTenants(t *testing.T) {
	g := newGateFS("a")
	_, _, client := newTestServer(t, Options{SnapshotDir: "snaps", FS: g})
	t.Cleanup(g.open) // before the server closes, which waits for held requests
	ds := coupledDataset(rand.New(rand.NewSource(51)), 10)

	g.armed.Store(true)
	a := async(func() error {
		_, err := client.PushTicks(context.Background(), "a", ticksOf(ds, 0, 1))
		return err
	})
	<-g.entered
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, errB := client.PushTicks(ctx, "b", ticksOf(ds, 0, 10))
	g.open()
	if errB != nil {
		t.Fatalf("tenant b stalled behind tenant a's held read: %v", errB)
	}
	if err := <-a; err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRacingTicksStartsFresh holds a DELETE inside its snapshot
// removal while a 10-tick request for the same tenant arrives. The request
// must wait for the delete and start fresh: 10 ticks, not the deleted 40
// restored and continued.
func TestDeleteRacingTicksStartsFresh(t *testing.T) {
	g := newGateFS("a")
	srv, _, client := newTestServer(t, Options{SnapshotDir: "snaps", FS: g})
	t.Cleanup(g.open) // before the server closes, which waits for held requests
	ds := coupledDataset(rand.New(rand.NewSource(52)), 50)
	ctx := context.Background()
	if _, err := client.PushTicks(ctx, "a", ticksOf(ds, 0, 40)); err != nil {
		t.Fatal(err)
	}

	g.armed.Store(true)
	del := async(func() error { return client.EndSession(ctx, "a") })
	<-g.entered
	push := async(func() error {
		_, err := client.PushTicks(ctx, "a", ticksOf(ds, 40, 50))
		return err
	})
	settle(t, srv, 1, push)
	g.open()
	if err := <-del; err != nil {
		t.Fatal(err)
	}
	if err := <-push; err != nil {
		t.Fatal(err)
	}
	info, err := client.Session(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 10 {
		t.Fatalf("tenant a at %d ticks after a delete and 10 new ticks, want 10", info.Ticks)
	}
}

// TestEvictionRacingTicksKeepsTicks holds an LRU eviction inside its write
// of tenant a, whose last save failed, while a 10-tick request for a
// arrives. The request must wait for the write and restore from it: 50
// ticks, not a fresh start at 10 over the 40 being written.
func TestEvictionRacingTicksKeepsTicks(t *testing.T) {
	g := newGateFS("a")
	srv, _, client := newTestServer(t, Options{SnapshotDir: "snaps", FS: g, MaxSessions: 1})
	t.Cleanup(g.open) // before the server closes, which waits for held requests
	ds := coupledDataset(rand.New(rand.NewSource(53)), 50)
	ctx := context.Background()
	g.failing.Store(true)
	if _, err := client.PushTicks(ctx, "a", ticksOf(ds, 0, 40)); err != nil {
		t.Fatal(err)
	}
	g.failing.Store(false)
	if n := srv.met.snapshotErrors.Load(); n != 1 {
		t.Fatalf("snapshot errors = %d, want a's one failed save", n)
	}

	g.armed.Store(true)
	b := async(func() error {
		_, err := client.PushTicks(ctx, "b", ticksOf(ds, 0, 1))
		return err
	})
	<-g.entered // b's start evicts a, whose write is now held
	push := async(func() error {
		_, err := client.PushTicks(ctx, "a", ticksOf(ds, 40, 50))
		return err
	})
	settle(t, srv, 2, push)
	g.open()
	if err := <-b; err != nil {
		t.Fatal(err)
	}
	if err := <-push; err != nil {
		t.Fatal(err)
	}
	info, err := client.Session(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 50 {
		t.Fatalf("tenant a at %d ticks after 40, an eviction and 10 more, want 50", info.Ticks)
	}
}
