//go:build !race

// Alloc-regression gate for the flusher's enqueue side. Excluded under
// the race detector, whose instrumentation changes allocation behavior.
package transport

import (
	"testing"
	"time"
)

// TestAllocsFlusherLanePush gates the steady-state lane push: with the
// drainer parked on an unexpired linger window, Send is a map lookup
// plus an append into the lane's pending slice — amortized below one
// allocation per push (the only allocations are the slice's geometric
// growth).
func TestAllocsFlusherLanePush(t *testing.T) {
	ep := &recordingEndpoint{}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Hour})
	payload := []byte("ping")
	// Warm the lane: the first push creates it and parks its drainer on
	// the hour-long window; a growth round sizes the pending slice.
	for i := 0; i < 300; i++ {
		if err := fl.Send(2, ClassApp, payload, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := fl.Send(2, ClassApp, payload, false); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("lane push: %.2f allocs/op, budget 1", got)
	}
	// Close rushes the parked drainer, which flushes the backlog at once.
	fl.Close()
}
