package active

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/transport"
)

// TestDGCMalformedExchangeChangesNoCollector: an exchange whose first
// record is well formed and whose second is not gets no reply, and the
// first record's target does not hear of its sender.
func TestDGCMalformedExchangeChangesNoCollector(t *testing.T) {
	e := NewEnv(Config{TTB: time.Hour, TTA: 3 * time.Hour})
	defer e.Close()
	n := e.NewNode()
	h := n.NewActive("target", relay{})
	defer h.Release()
	sender := ids.ActivityID{Node: 99, Seq: 1}
	ob := core.Outbound{To: h.target, Msg: core.Message{Sender: sender, Clock: lamport.Clock{Value: 1, Owner: sender}}}
	req := encodeDGC([]core.Outbound{ob, ob})
	req = append(req[:len(req)-1], 0x80) // the second record's clock: a truncated uvarint
	if resp := n.HandleCall(99, transport.ClassDGC, req); resp != nil {
		t.Fatalf("malformed exchange answered %x", resp)
	}
	ao, _ := n.activity(h.target)
	for _, ref := range ao.collector.Referencers() {
		if ref == sender {
			t.Fatal("the malformed exchange's first record reached its collector")
		}
	}
	if resp := n.HandleCall(99, transport.ClassDGC, encodeDGC([]core.Outbound{ob})); resp == nil {
		t.Fatal("the well-formed exchange got no reply")
	}
	found := false
	for _, ref := range ao.collector.Referencers() {
		found = found || ref == sender
	}
	if !found {
		t.Fatal("the well-formed exchange did not make its sender a referencer")
	}
}
