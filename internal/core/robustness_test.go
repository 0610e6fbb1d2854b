package core

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/lamport"
)

// The protocol must tolerate benign transport anomalies: duplicated
// deliveries (a beat retried), stale responses (edges dropped mid-
// exchange), and traffic referring to unknown peers. None of these may
// corrupt state or violate safety.

func newIdleCollector(t *testing.T) (*Collector, time.Time) {
	t.Helper()
	now := time.Unix(0, 0)
	cfg := Config{TTB: testTTB, TTA: testTTA}
	return New(id(1), cfg, func() bool { return true }, now), now
}

func TestDuplicateMessagesAreIdempotent(t *testing.T) {
	c, now := newIdleCollector(t)
	msg := Message{Sender: id(2), Clock: lamport.Clock{Value: 5, Owner: id(2)}, Consensus: true}
	r1 := c.HandleMessage(msg, now)
	r2 := c.HandleMessage(msg, now)
	r3 := c.HandleMessage(msg, now.Add(time.Second))
	if r1 != r2 || r2 != r3 {
		t.Fatalf("duplicate messages produced different responses: %+v %+v %+v", r1, r2, r3)
	}
	if got := c.Referencers(); len(got) != 1 {
		t.Fatalf("duplicate messages duplicated the referencer: %v", got)
	}
	if c.Clock() != msg.Clock {
		t.Fatalf("clock = %v, want merged %v once", c.Clock(), msg.Clock)
	}
}

func TestStaleResponseAfterEdgeDropIsIgnored(t *testing.T) {
	c, now := newIdleCollector(t)
	c.AddReferenced(id(2), now)
	c.Tick(now) // sentOnce
	c.LostReferenced(id(2), now)
	if got := c.Referenced(); len(got) != 0 {
		t.Fatalf("edge not dropped: %v", got)
	}
	before := c.Clock()
	// A response from the dropped peer arrives late.
	c.HandleResponse(id(2), Response{Clock: before, HasParent: true}, now)
	if !c.Parent().IsNil() {
		t.Fatal("stale response installed a parent for a dropped edge")
	}
}

func TestResponseFromUnknownPeerIsIgnored(t *testing.T) {
	c, now := newIdleCollector(t)
	c.HandleResponse(id(9), Response{Clock: c.Clock(), HasParent: true, ConsensusReached: true}, now)
	if c.Status() != StatusLive {
		t.Fatal("response from unknown peer changed the status")
	}
	if !c.Parent().IsNil() {
		t.Fatal("response from unknown peer installed a parent")
	}
}

func TestDyingWaveRequiresMatchingClock(t *testing.T) {
	c, now := newIdleCollector(t)
	c.AddReferenced(id(2), now)
	c.Tick(now)
	// A consensus-reached response for a clock we do NOT hold must not
	// kill us (protects against cross-cycle waves, Fig. 4 families).
	foreign := lamport.Clock{Value: 99, Owner: id(2)}
	c.HandleResponse(id(2), Response{Clock: foreign, HasParent: true, ConsensusReached: true}, now)
	if c.Status() != StatusLive {
		t.Fatalf("dying wave accepted with mismatched clock: %v", c.Status())
	}
	// With the matching clock it is accepted.
	c.HandleResponse(id(2), Response{Clock: c.Clock(), HasParent: true, ConsensusReached: true}, now)
	if c.Status() != StatusDying {
		t.Fatalf("dying wave rejected with matching clock: %v", c.Status())
	}
	if c.TerminationReason() != ReasonNotified {
		t.Fatalf("reason = %v, want notified", c.TerminationReason())
	}
}

func TestDyingWaveIgnoredWhileBusy(t *testing.T) {
	now := time.Unix(0, 0)
	idle := false
	cfg := Config{TTB: testTTB, TTA: testTTA}
	c := New(id(1), cfg, func() bool { return idle }, now)
	c.AddReferenced(id(2), now)
	c.Tick(now)
	c.HandleResponse(id(2), Response{Clock: c.Clock(), HasParent: true, ConsensusReached: true}, now)
	if c.Status() != StatusLive {
		t.Fatal("busy activity joined a dying wave")
	}
}

func TestAddReferencedIsIdempotentAndReacquirable(t *testing.T) {
	c, now := newIdleCollector(t)
	c.AddReferenced(id(2), now)
	c.AddReferenced(id(2), now)
	if got := c.Referenced(); len(got) != 1 {
		t.Fatalf("Referenced = %v, want 1", got)
	}
	// Drop before first send: pending removal; re-acquiring cancels it.
	c2 := New(id(3), Config{TTB: testTTB, TTA: testTTA}, func() bool { return true }, now)
	c2.AddReferenced(id(2), now)
	c2.LostReferenced(id(2), now)
	c2.AddReferenced(id(2), now) // re-acquired before the mandatory send
	res := c2.Tick(now)
	if len(res.Messages) != 1 {
		t.Fatalf("messages = %v", res.Messages)
	}
	if got := c2.Referenced(); len(got) != 1 {
		t.Fatalf("re-acquired edge dropped after send: %v", got)
	}
}

func TestLostReferencedUnknownTargetIsNoop(t *testing.T) {
	c, now := newIdleCollector(t)
	before := c.Clock()
	c.LostReferenced(id(42), now)
	if c.Clock() != before {
		t.Fatal("unknown-target loss ticked the clock")
	}
}

func TestTickAfterEnteredDyingSendsNothing(t *testing.T) {
	// Build a self-cycle to a consensus, then check the dying phase sends
	// no messages but still answers with the wave.
	g := newGraph(t)
	a := id(1)
	g.add(a)
	g.link(a, a)
	var dying bool
	for i := 0; i < 30 && !dying; i++ {
		g.now = g.now.Add(testTTB)
		res := g.collectors[a].Tick(g.now)
		dying = res.EnteredDying
		for _, ob := range res.Messages {
			resp := g.collectors[a].HandleMessage(ob.Msg, g.now)
			g.collectors[a].HandleResponse(ob.To, resp, g.now)
		}
	}
	if !dying {
		t.Fatal("self-cycle never reached consensus")
	}
	res := g.collectors[a].Tick(g.now.Add(testTTB))
	if len(res.Messages) != 0 || res.Terminated {
		t.Fatalf("dying tick = %+v, want silent non-terminal", res)
	}
	resp := g.collectors[a].HandleMessage(Message{Sender: id(2), Clock: g.collectors[a].Clock()}, g.now)
	if !resp.ConsensusReached {
		t.Fatal("dying activity must answer with the wave")
	}
	// After TTA it terminates.
	res = g.collectors[a].Tick(g.now.Add(testTTB + testTTA))
	if !res.Terminated || res.Reason != ReasonCyclic {
		t.Fatalf("dying activity did not terminate after TTA: %+v", res)
	}
}

func TestMessagesSortedByDestination(t *testing.T) {
	c, now := newIdleCollector(t)
	targets := []ids.ActivityID{{Node: 3, Seq: 1}, {Node: 1, Seq: 5}, {Node: 2, Seq: 2}}
	for _, tgt := range targets {
		c.AddReferenced(tgt, now)
	}
	res := c.Tick(now)
	if len(res.Messages) != 3 {
		t.Fatalf("messages = %d", len(res.Messages))
	}
	for i := 1; i < len(res.Messages); i++ {
		if !res.Messages[i-1].To.Less(res.Messages[i].To) {
			t.Fatalf("broadcast not sorted: %v then %v", res.Messages[i-1].To, res.Messages[i].To)
		}
	}
}

// TestReferencedMapRebuiltAfterPeak: once a collector's referenced set
// falls under a quarter of its peak, the next Tick rebuilds the map, and
// the edges left keep beating.
func TestReferencedMapRebuiltAfterPeak(t *testing.T) {
	c, now := newIdleCollector(t)
	for seq := uint32(1); seq <= 1000; seq++ {
		c.AddReferenced(ids.ActivityID{Node: 2, Seq: seq}, now)
	}
	c.Tick(now) // the mandatory first sends
	for seq := uint32(11); seq <= 1000; seq++ {
		c.LostReferenced(ids.ActivityID{Node: 2, Seq: seq}, now)
	}
	if c.refPeak != 1000 {
		t.Fatalf("peak before the rebuild = %d, want 1000", c.refPeak)
	}
	if res := c.Tick(now); len(res.Messages) != 10 {
		t.Fatalf("messages after the drop = %d, want 10", len(res.Messages))
	}
	if c.refPeak != 10 || len(c.Referenced()) != 10 {
		t.Fatalf("after the rebuild: peak %d, referenced %d; want 10 and 10", c.refPeak, len(c.Referenced()))
	}
}
