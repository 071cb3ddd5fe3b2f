// Package serve is a lockorder fixture: two struct-owned mutexes acquired in
// inconsistent orders, directly and through helpers.
package serve

import "sync"

type registry struct {
	mu       sync.Mutex
	sessions map[string]*session
}

type session struct {
	mu    sync.Mutex
	ticks int
}

// forward establishes registry.mu -> session.mu.
func (r *registry) forward(s *session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.mu.Lock() // want `forms a lock-order cycle: registry\.mu -> session\.mu -> registry\.mu`
	s.ticks++
	s.mu.Unlock()
}

// backward establishes session.mu -> registry.mu through a helper: the edge
// is recorded at the call, closing the cycle with forward's direct edge.
func (s *session) backward(r *registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.drop("t") // want `call to drop acquires registry\.mu while session\.mu is held forms a lock-order cycle`
}

func (r *registry) drop(tenant string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sessions, tenant)
}

// reenter blocks on a mutex the same call path already holds.
func (r *registry) reenter() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.Lock() // want `mutex registry\.mu acquired while already held`
}

// reenterViaHelper self-deadlocks one call deeper.
func (s *session) reenterViaHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bump() // want `call to bump may re-acquire session\.mu while it is held`
}

func (s *session) bump() {
	s.mu.Lock()
	s.ticks++
	s.mu.Unlock()
}

// goroutineCycle: hold sets do not cross a go statement, but the goroutine
// body is scanned as its own root, so an inversion inside it still closes the
// cycle against forward's registry.mu -> session.mu edge.
func (s *session) goroutineCycle(r *registry) {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		r.mu.Lock() // want `acquiring registry\.mu while session\.mu is held forms a lock-order cycle`
		defer r.mu.Unlock()
	}()
}

// caseCycle: a switch case expression is evaluated under the lock, so the
// call in it closes the cycle against forward's edge.
func (s *session) caseCycle(r *registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.ticks {
	case r.count(): // want `call to count acquires registry\.mu while session\.mu is held forms a lock-order cycle: session\.mu -> registry\.mu -> session\.mu`
		s.ticks = 0
	}
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}
