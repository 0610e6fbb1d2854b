//go:build !race

// Alloc-regression gate for the DGC receive path. Excluded under the race
// detector, whose instrumentation changes allocation behavior.
package active

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/transport"
)

// TestAllocsDGCExchangeReceive gates one single-record DGC exchange
// through Node.HandleCall in the steady state (the sender already a
// referencer): the envelope is validated and answered record by record
// straight into the reply, which is the one allocation.
func TestAllocsDGCExchangeReceive(t *testing.T) {
	e := NewEnv(Config{TTB: time.Hour, TTA: 3 * time.Hour})
	defer e.Close()
	n := e.NewNode()
	h := n.NewActive("target", relay{})
	defer h.Release()
	sender := ids.ActivityID{Node: 99, Seq: 1}
	req := encodeDGC([]core.Outbound{{To: h.target, Msg: core.Message{
		Sender: sender, Clock: lamport.Clock{Value: 1, Owner: sender},
	}}})
	exchange := func() {
		if resp := n.HandleCall(99, transport.ClassDGC, req); len(resp) == 0 {
			t.Fatal("no response from a live target")
		}
	}
	exchange() // the first message makes the sender a referencer
	got := testing.AllocsPerRun(200, exchange)
	t.Logf("DGC exchange receive: %.1f allocs/op", got)
	if got > 1 {
		t.Errorf("DGC exchange receive: %.1f allocs/op, budget 1", got)
	}
}
