//go:build !race

// Alloc-regression gate for the loopback send path. Excluded under the
// race detector, whose instrumentation changes allocation behavior.
package tcpnet

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/transport"
)

// discard is a handler that keeps nothing, so the server side of the
// measured sends allocates nothing of its own.
type discard struct{}

func (discard) HandleOneWay(ids.NodeID, transport.Class, []byte)      {}
func (discard) HandleCall(ids.NodeID, transport.Class, []byte) []byte { return nil }

// TestAllocsLoopbackSend gates a one-way Send to another node of the
// same process over a warm connection: the route lookup hands out the
// listener address formatted once at New, and the frame buffer comes
// from the pool, so a send costs at most one allocation.
func TestAllocsLoopbackSend(t *testing.T) {
	n := newNet(t, Config{})
	n.Register(2, discard{})
	ep := n.Register(1, discard{})
	payload := []byte("ping")
	send := func() {
		if err := ep.Send(2, transport.ClassApp, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // dial, then warm the buffer pool
		send()
	}
	if got := testing.AllocsPerRun(2000, send); got > 1 {
		t.Errorf("loopback send: %.2f allocs/op, budget 1", got)
	}
}
