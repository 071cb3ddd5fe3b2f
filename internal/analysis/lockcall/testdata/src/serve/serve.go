package serve

import (
	"os"
	"sync"

	"mdes/internal/faultfs"
)

type session struct {
	mu    sync.Mutex
	state int
	out   chan int
	hook  func(int)
	fs    faultfs.FS
}

// writeState is a same-package helper that performs file I/O; the fixpoint
// marks it, so calling it under a lock is as bad as calling os directly.
func writeState(v int) error {
	return os.WriteFile("state", []byte{byte(v)}, 0o644)
}

func (s *session) bad() {
	s.mu.Lock()
	s.state++
	s.out <- s.state        // want `channel send while s.mu is held`
	_ = os.Remove("stale")  // want `call to os.Remove while s.mu is held \(file/network I/O\)`
	_ = writeState(s.state) // want `call to writeState while s.mu is held`
	s.hook(s.state)         // want `dynamic callback invocation while s.mu is held`
	s.mu.Unlock()
}

func (s *session) badDeferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state > 0 {
		_ = os.Remove("stale") // want `call to os.Remove while s.mu is held`
	}
}

// Calls hidden in an if/for/switch init statement are still under the lock.
func (s *session) badInit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeState(s.state); err != nil { // want `call to writeState while s.mu is held`
		s.state = 0
	}
	switch err := os.Remove("stale"); err { // want `call to os.Remove while s.mu is held`
	case nil:
	}
	for i := lineCount(); i > 0; i-- { // want `call to lineCount while s.mu is held`
		s.state--
	}
}

// lineCount is transitively I/O via writeState.
func lineCount() int {
	_ = writeState(0)
	return 1
}

// A store read through the faultfs.FS interface is file I/O whatever FS
// sits behind it.
func (s *session) badStore() {
	s.mu.Lock()
	_, _ = s.fs.ReadFile("snap") // want `call to faultfs.ReadFile while s.mu is held \(file/network I/O\)`
	s.mu.Unlock()
}

// --- non-flagging shapes -------------------------------------------------

func (s *session) good() {
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
	// After the unlock, everything is allowed again.
	s.out <- s.state
	_ = writeState(s.state)
	s.hook(s.state)
}

func (s *session) goodAsync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.state
	// The goroutine body runs after we return; it is not under the lock.
	go func() {
		_ = writeState(v)
	}()
}

func (s *session) waived() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//mdes:allow(lockcall) creation must be atomic: the snapshot read is part of the critical section
	_ = writeState(s.state)
}

// The store call after the unlock is not under the lock.
func (s *session) goodStore() {
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
	_ = s.fs.Remove("snap")
}

// Lock-free functions are never flagged.
func (s *session) free() {
	_ = writeState(s.state)
	s.out <- 1
}

// Select communications, case expressions and a type switch's guard are
// evaluated under the lock too.
func (s *session) badSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.out <- s.state: // want `channel send while s.mu is held`
	}
}

func (s *session) badCase() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case lineCount(): // want `call to lineCount while s.mu is held`
		s.state = 0
	}
}

func (s *session) badTypeSwitch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch v := any(writeState(1)).(type) { // want `call to writeState while s.mu is held`
	case error:
		_ = v
	}
}

// A function literal's body is walked on its own, with its own locks.
func (s *session) badClosure() func() {
	return func() {
		s.mu.Lock()
		s.out <- s.state // want `channel send while s.mu is held`
		s.mu.Unlock()
	}
}
