package serve_test

import (
	"context"
	"testing"

	"mdes/internal/chaos"
	"mdes/internal/serve"
)

// TestBrokenSlotWriterIsCaught certifies the serve soak the way
// TestBrokenRecoveryIsCaught certifies the journal soak: run against a
// snapshot writer that ignores the failed-write rule — after a failed save
// it keeps writing in place, into the slot holding the only intact record —
// chaos.ServeSoak must report the lost snapshot. If this test ever finds the
// sabotaged writer passing, the soak has lost its teeth.
//
// The sabotage only bites when the crash point lands on the one save after a
// failed one (about one iteration in 40 at seed 3), so the sweep runs 200
// iterations instead of the soak's usual 25; a clean pass costs well under a
// second.
func TestBrokenSlotWriterIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := chaos.ServeSoakWith(context.Background(), 3, 200, func(o serve.Options) (*serve.Server, error) {
		s, err := serve.New(o)
		if err == nil {
			serve.TrustFailedWrites(s)
		}
		return s, err
	})
	if err == nil {
		t.Fatalf("soak passed against a writer that ignores the failed-write rule: %+v", rep)
	}
	t.Logf("broken writer caught: %v", err)
}
