package serve

// TrustFailedWrites sabotages s's snapshot writer for the chaos harness
// self-test (harness_test.go): a failed save is remembered as landed and the
// next save goes in place, breaking the failed-write rule of slots.go.
func TrustFailedWrites(s *Server) { s.store.files.trustFailedWrites = true }
