package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/wire"
)

// --- Acyclic collection (§3.1) -------------------------------------------

func TestLoneIdleActivityCollectedAcyclically(t *testing.T) {
	g := newGraph(t)
	a := id(1)
	g.add(a)
	// TTA = 61s, TTB = 30s: silence exceeds TTA on the 3rd beat (90s).
	g.run(2)
	if g.collected(a) {
		t.Fatal("collected before TTA elapsed")
	}
	g.step()
	if !g.collected(a) {
		t.Fatal("idle unreferenced activity not collected after TTA")
	}
	if g.terminated[a] != ReasonAcyclic {
		t.Fatalf("reason = %v, want acyclic", g.terminated[a])
	}
}

func TestBusyActivityNeverCollected(t *testing.T) {
	g := newGraph(t)
	a := id(1)
	g.addBusy(a)
	g.run(20)
	if g.collected(a) {
		t.Fatal("busy activity was collected")
	}
}

func TestHeartbeatKeepsReferencedAlive(t *testing.T) {
	g := newGraph(t)
	root, b := id(1), id(2)
	g.addBusy(root)
	g.add(b)
	g.link(root, b)
	g.run(20)
	if g.collected(b) {
		t.Fatal("referenced activity collected while referencer heartbeats")
	}
	if got := g.collectors[b].Referencers(); len(got) != 1 || got[0] != root {
		t.Fatalf("b.Referencers() = %v, want [root]", got)
	}
}

func TestChainCollectedAfterRootDrops(t *testing.T) {
	// root → a → b; root releases its stub of a: the chain peels off
	// acyclically, a first, then b.
	g := newGraph(t)
	root, a, b := id(1), id(2), id(3)
	g.addBusy(root)
	g.add(a)
	g.add(b)
	g.link(root, a)
	g.link(a, b)
	g.run(3) // graph established
	if !g.noneCollected(a, b) {
		t.Fatal("premature collection")
	}
	g.drop(root, a)
	g.run(stepsFor(2) + 4)
	if !g.allCollected(a, b) {
		t.Fatalf("chain not collected: a=%v b=%v", g.terminated[a], g.terminated[b])
	}
	if g.collected(root) {
		t.Fatal("busy root collected")
	}
	if g.terminated[a] != ReasonAcyclic || g.terminated[b] != ReasonAcyclic {
		t.Fatalf("reasons = %v, %v; want acyclic, acyclic", g.terminated[a], g.terminated[b])
	}
}

func TestMustSendOnceKeepsQuicklyDroppedReferenceAlive(t *testing.T) {
	// a deserializes a ref to b and drops it before the next beat: the
	// mandatory first DGC message must still be sent (§3.1), so b's
	// lastMessage timestamp is refreshed once.
	g := newGraph(t)
	a, b := id(1), id(2)
	g.addBusy(a)
	g.add(b)
	g.link(a, b)
	g.drop(a, b) // collected before any broadcast
	g.step()
	// The edge must have been used exactly once and then removed.
	if got := g.collectors[a].Referenced(); len(got) != 0 {
		t.Fatalf("a.Referenced() = %v, want empty after remove-after-send", got)
	}
	if got := g.collectors[b].Referencers(); len(got) != 1 {
		t.Fatalf("b.Referencers() = %v, want the one mandatory message recorded", got)
	}
}

// TestBeatMessagesShareOneClock: a beat that drops a quickly-lost
// referenced after its mandatory message sends every message with the
// clock the beat started with, and only then advances the clock, so
// the messages do not depend on the map order of the referenced set.
func TestBeatMessagesShareOneClock(t *testing.T) {
	now := time.Unix(0, 0)
	self := ids.ActivityID{Node: 1, Seq: 1}
	c := New(self, Config{TTB: 30 * time.Second, TTA: 61 * time.Second}, func() bool { return false }, now)
	for seq := uint32(1); seq <= 16; seq++ {
		c.AddReferenced(ids.ActivityID{Node: 2, Seq: seq}, now)
	}
	for seq := uint32(1); seq <= 16; seq += 4 {
		c.LostReferenced(ids.ActivityID{Node: 2, Seq: seq}, now) // before any send
	}
	start := c.Clock()
	res := c.Tick(now.Add(30 * time.Second))
	if len(res.Messages) != 16 {
		t.Fatalf("beat sent %d messages, want 16 (the lost ones once)", len(res.Messages))
	}
	for _, ob := range res.Messages {
		if ob.Msg.Clock != start {
			t.Fatalf("message to %v carries %v, want the beat's starting clock %v", ob.To, ob.Msg.Clock, start)
		}
	}
	if got := c.Clock(); got.Value != start.Value+4 || got.Owner != self {
		t.Fatalf("clock after the beat = %v, want 4 advances past %v", got, start)
	}
}

func TestReferencerExpiryTicksClock(t *testing.T) {
	g := newGraph(t)
	root, b := id(1), id(2)
	g.addBusy(root)
	g.add(b)
	g.link(root, b)
	g.run(2)
	before := g.collectors[b].Clock()
	g.drop(root, b)
	// After TTA of silence b expires root — but b is then also acyclic
	// garbage; check the expiry event fired before termination.
	g.run(4)
	var sawExpiry bool
	for _, ev := range g.events {
		if ev.Activity == b && ev.Kind == EventReferencerExpired && ev.Peer == root {
			sawExpiry = true
		}
	}
	if !sawExpiry {
		t.Fatal("no referencer-expired event for root at b")
	}
	_ = before
}

// --- Cyclic collection (§3.2) --------------------------------------------

func TestTwoCycleCollected(t *testing.T) {
	g := newGraph(t)
	a, b := id(1), id(2)
	g.add(a)
	g.add(b)
	g.link(a, b)
	g.link(b, a)
	g.run(stepsFor(2))
	if !g.allCollected(a, b) {
		t.Fatalf("2-cycle not collected: a=%v b=%v clocks a=%v b=%v",
			g.terminated[a], g.terminated[b], g.collectors[a].Clock(), g.collectors[b].Clock())
	}
	// Exactly one of them made the consensus; the other caught the wave or
	// also reached consensus symmetrically — but at least one must be the
	// consensus maker.
	if g.terminated[a] != ReasonCyclic && g.terminated[b] != ReasonCyclic {
		t.Fatalf("no consensus maker: a=%v b=%v", g.terminated[a], g.terminated[b])
	}
}

func TestSelfCycleCollected(t *testing.T) {
	g := newGraph(t)
	a := id(1)
	g.add(a)
	g.link(a, a)
	g.run(stepsFor(1))
	if !g.collected(a) {
		t.Fatalf("self-cycle not collected: %v", g.collectors[a])
	}
	if g.terminated[a] != ReasonCyclic {
		t.Fatalf("reason = %v, want cyclic-consensus", g.terminated[a])
	}
}

func TestLongCycleCollected(t *testing.T) {
	const n = 12
	g := newGraph(t)
	ring := make([]ids.ActivityID, n)
	for i := range ring {
		ring[i] = id(uint32(i + 1))
		g.add(ring[i])
	}
	for i := range ring {
		g.link(ring[i], ring[(i+1)%n])
	}
	g.run(stepsFor(n))
	if !g.allCollected(ring...) {
		for _, r := range ring {
			t.Logf("%v: %v %v", r, g.terminated[r], g.collectors[r])
		}
		t.Fatal("ring not fully collected")
	}
}

func TestCycleWithBusyMemberSurvives(t *testing.T) {
	g := newGraph(t)
	a, b, c := id(1), id(2), id(3)
	g.add(a)
	g.add(b)
	g.addBusy(c)
	g.link(a, b)
	g.link(b, c)
	g.link(c, a)
	g.run(40)
	if !g.noneCollected(a, b, c) {
		t.Fatalf("live cycle partially collected: a=%v b=%v c=%v",
			g.terminated[a], g.terminated[b], g.terminated[c])
	}
}

func TestCycleCollectedOnceBusyMemberGoesIdle(t *testing.T) {
	g := newGraph(t)
	a, b, c := id(1), id(2), id(3)
	g.add(a)
	g.add(b)
	g.addBusy(c)
	g.link(a, b)
	g.link(b, c)
	g.link(c, a)
	g.run(10)
	if !g.noneCollected(a, b, c) {
		t.Fatal("collected while one member busy")
	}
	g.setIdle(c, true) // increments c's clock (occasion #1)
	g.run(stepsFor(3))
	if !g.allCollected(a, b, c) {
		t.Fatalf("cycle not collected after the busy member went idle: a=%v b=%v c=%v",
			g.terminated[a], g.terminated[b], g.terminated[c])
	}
}

func TestCycleReferencedByBusyRootSurvives(t *testing.T) {
	// root (busy) → a, a → b → a. Garbage(x) fails for a and b because a
	// busy recursive referencer exists.
	g := newGraph(t)
	root, a, b := id(1), id(2), id(3)
	g.addBusy(root)
	g.add(a)
	g.add(b)
	g.link(root, a)
	g.link(a, b)
	g.link(b, a)
	g.run(40)
	if !g.noneCollected(a, b) {
		t.Fatalf("cycle referenced by busy root collected: a=%v b=%v", g.terminated[a], g.terminated[b])
	}
}

func TestCycleCollectedAfterBusyRootDrops(t *testing.T) {
	g := newGraph(t)
	root, a, b := id(1), id(2), id(3)
	g.addBusy(root)
	g.add(a)
	g.add(b)
	g.link(root, a)
	g.link(a, b)
	g.link(b, a)
	g.run(5)
	g.drop(root, a)
	g.run(stepsFor(2) + 4) // + TTA for the referencer expiry at a
	if !g.allCollected(a, b) {
		t.Fatalf("cycle not collected after root dropped: a=%v b=%v; a=%v b=%v",
			g.terminated[a], g.terminated[b], g.collectors[a], g.collectors[b])
	}
	if g.collected(root) {
		t.Fatal("root collected")
	}
}

// TestFig3ReverseSpanningTree builds the reference graph of paper Fig. 3
// and checks that a consensus forms a reverse spanning tree rooted at the
// clock owner: every collected member except the originator adopted a
// parent, and following parents reaches the originator.
func TestFig3ReverseSpanningTree(t *testing.T) {
	// Fig. 3 graph: a cycle A→B→C→A with an extra branch D: C→D, D→A
	// (compound cycle through A).
	g := newGraph(t)
	a, b, c, d := id(1), id(2), id(3), id(4)
	for _, x := range []ids.ActivityID{a, b, c, d} {
		g.add(x)
	}
	g.link(a, b)
	g.link(b, c)
	g.link(c, a)
	g.link(c, d)
	g.link(d, a)

	// Run until the consensus is detected but before everyone terminates.
	var maker ids.ActivityID
	for i := 0; i < stepsFor(4); i++ {
		g.step()
		for _, ev := range g.events {
			if ev.Kind == EventConsensusDetected {
				maker = ev.Activity
			}
		}
		if !maker.IsNil() {
			break
		}
	}
	if maker.IsNil() {
		t.Fatal("no consensus detected")
	}
	// The consensus maker owns the final clock.
	if g.collectors[maker].Clock().Owner != maker {
		t.Fatalf("maker %v does not own its final clock %v", maker, g.collectors[maker].Clock())
	}
	// Every other member's parent chain must reach the maker without
	// revisiting a node (reverse spanning tree rooted at the originator).
	for _, x := range []ids.ActivityID{a, b, c, d} {
		if x == maker {
			continue
		}
		cur := x
		seen := map[ids.ActivityID]bool{}
		for cur != maker {
			if seen[cur] {
				t.Fatalf("parent chain from %v loops at %v", x, cur)
			}
			seen[cur] = true
			p := g.collectors[cur].Parent()
			if p.IsNil() {
				t.Fatalf("%v has no parent but is not the originator %v", cur, maker)
			}
			cur = p
		}
	}
	// And the whole compound cycle must eventually be collected.
	g.run(stepsFor(4))
	if !g.allCollected(a, b, c, d) {
		t.Fatal("compound cycle not fully collected")
	}
}

// TestFig4ResponsesDoNotPropagateClocks: C1 → C2 where C2 is busy. C2's
// high clock must not leak into C1 through DGC responses, so C1 is
// collected even though C2 lives on (reference orientation, Fig. 4).
func TestFig4ResponsesDoNotPropagateClocks(t *testing.T) {
	g := newGraph(t)
	a1, a2 := id(1), id(2) // cycle C1, idle
	b1, b2 := id(3), id(4) // cycle C2, one busy member
	g.add(a1)
	g.add(a2)
	g.add(b1)
	g.addBusy(b2)
	g.link(a1, a2)
	g.link(a2, a1)
	g.link(b1, b2)
	g.link(b2, b1)
	g.link(a1, b1) // C1 references C2

	g.run(stepsFor(3))
	if !g.allCollected(a1, a2) {
		t.Fatalf("C1 not collected although only C2 is busy: a1=%v a2=%v a1=%v",
			g.terminated[a1], g.terminated[a2], g.collectors[a1])
	}
	if !g.noneCollected(b1, b2) {
		t.Fatal("busy cycle C2 was collected")
	}
}

// TestFig5LossOfReferencerOwnsClock: a busy A references an idle cycle and
// floods it with A-owned clocks; when A disappears the cycle must not stay
// stuck on the unowned clock (Case 1 of Fig. 5) — B increments and owns a
// new one (Case 2), and the cycle is collected.
func TestFig5LossOfReferencerOwnsClock(t *testing.T) {
	g := newGraph(t)
	a, b, c := id(1), id(2), id(3)
	g.addBusy(a)
	g.add(b)
	g.add(c)
	g.link(a, b)
	g.link(b, c)
	g.link(c, b)
	g.run(5)
	// A's clock (owned by a busy activity) has been pushed into the cycle.
	g.kill(a) // crash: no stub drop, just silence
	g.run(stepsFor(2) + 6)
	if !g.allCollected(b, c) {
		t.Fatalf("cycle stuck on unowned final clock: b=%v c=%v b=%v c=%v",
			g.terminated[b], g.terminated[c], g.collectors[b], g.collectors[c])
	}
}

// TestFig6LossOfReferencedTicksClock: dropping a referenced edge must
// increment the clock; otherwise a consensus traversal that was depending
// on the dropped edge's rejection path could wrongly collect a live cycle.
func TestFig6LossOfReferencedTicksClock(t *testing.T) {
	g := newGraph(t)
	a, b := id(1), id(2)
	g.add(a)
	g.add(b)
	g.link(a, b)
	g.link(b, a)
	g.run(2)
	before := g.collectors[a].Clock()
	g.drop(a, b)
	after := g.collectors[a].Clock()
	if !before.Less(after) {
		t.Fatalf("clock did not advance on loss of referenced: %v → %v", before, after)
	}
	if after.Owner != a {
		t.Fatalf("clock owner after loss = %v, want a", after.Owner)
	}
	if got := g.collectors[a].Parent(); !got.IsNil() {
		t.Fatalf("parent survived the clock increment: %v", got)
	}
}

// TestFig6LiveCycleNeverWronglyCollected is the Fig. 6 hazard: a reference
// graph kept live by a single busy activity D loses the C→A edge — the
// edge that was carrying C's consensus rejection to its parent. The clock
// increment on edge loss (plus referencer expiry at A) must prevent the
// wrongful collection. A stays referenced through the E→A edge, so no
// member ever becomes genuine garbage.
func TestFig6LiveCycleNeverWronglyCollected(t *testing.T) {
	// Edges: A→B→C→A (cycle), D→E (D busy), E→A.
	g := newGraph(t)
	a, b, c, d, e := id(1), id(2), id(3), id(4), id(5)
	g.add(a)
	g.add(b)
	g.add(c)
	g.addBusy(d)
	g.add(e)
	g.link(a, b)
	g.link(b, c)
	g.link(c, a)
	g.link(d, e)
	g.link(e, a)

	g.run(8)
	if !g.noneCollected(a, b, c, e) {
		t.Fatal("live graph partially collected before edge drop")
	}
	// Drop C→A, the edge that was carrying C's input to A.
	g.drop(c, a)
	g.run(30)
	if !g.noneCollected(a, b, c, e) {
		t.Fatalf("live cycle wrongly collected after losing an edge: a=%v b=%v c=%v e=%v",
			g.terminated[a], g.terminated[b], g.terminated[c], g.terminated[e])
	}
	if g.collected(d) {
		t.Fatal("busy activity collected")
	}
}

// TestFig7CompoundCycle replays the paper's Fig. 7: a compound cycle is
// fully collected in one consensus wave; adding one busy member vetoes the
// whole collection.
func TestFig7CompoundCycle(t *testing.T) {
	build := func(g *graph, busy bool) []ids.ActivityID {
		a, b, c, d := id(1), id(2), id(3), id(4)
		g.add(a)
		g.add(b)
		g.add(c)
		if busy {
			g.addBusy(d)
		} else {
			g.add(d)
		}
		// Two cycles sharing the edge a→b: a→b→c→a and a→b→d→a.
		g.link(a, b)
		g.link(b, c)
		g.link(c, a)
		g.link(b, d)
		g.link(d, a)
		return []ids.ActivityID{a, b, c, d}
	}

	t.Run("garbage", func(t *testing.T) {
		g := newGraph(t)
		all := build(g, false)
		g.run(stepsFor(4))
		if !g.allCollected(all...) {
			t.Fatalf("compound cycle not collected: %v %v %v %v",
				g.terminated[all[0]], g.terminated[all[1]], g.terminated[all[2]], g.terminated[all[3]])
		}
	})
	t.Run("one live member vetoes", func(t *testing.T) {
		g := newGraph(t)
		all := build(g, true)
		g.run(40)
		if !g.noneCollected(all...) {
			t.Fatal("compound cycle with a busy member was partially collected")
		}
	})
}

// --- The §4.3 dying-wave optimization --------------------------------------

func TestConsensusPropagationCollectsWholeCycleInOneWave(t *testing.T) {
	const n = 8
	g := newGraph(t)
	ring := make([]ids.ActivityID, n)
	for i := range ring {
		ring[i] = id(uint32(i + 1))
		g.add(ring[i])
	}
	for i := range ring {
		g.link(ring[i], ring[(i+1)%n])
	}
	g.run(stepsFor(n))
	if !g.allCollected(ring...) {
		t.Fatal("ring not collected")
	}
	// Exactly one consensus event: the wave did the rest.
	var consensuses int
	for _, ev := range g.events {
		if ev.Kind == EventConsensusDetected {
			consensuses++
		}
	}
	if consensuses != 1 {
		t.Fatalf("consensus detected %d times, want exactly 1 (wave propagation)", consensuses)
	}
}

func TestAblationWithoutPropagationStillCollects(t *testing.T) {
	g := newGraph(t)
	g.cfg.DisableConsensusPropagation = true
	a, b, c := id(1), id(2), id(3)
	g.add(a)
	g.add(b)
	g.add(c)
	g.link(a, b)
	g.link(b, c)
	g.link(c, a)
	// Without the wave, each termination only peels one member; the rest
	// follows via referencer expiry + new consensus. Budget generously.
	g.run(10 * stepsFor(3))
	if !g.allCollected(a, b, c) {
		t.Fatalf("ablated collector failed to collect: a=%v b=%v c=%v",
			g.terminated[a], g.terminated[b], g.terminated[c])
	}
}

func TestAblationIsSlower(t *testing.T) {
	run := func(disable bool) int {
		g := newGraph(t)
		g.cfg.DisableConsensusPropagation = disable
		const n = 6
		ring := make([]ids.ActivityID, n)
		for i := range ring {
			ring[i] = id(uint32(i + 1))
			g.add(ring[i])
		}
		for i := range ring {
			g.link(ring[i], ring[(i+1)%n])
		}
		steps := 0
		for ; steps < 400; steps++ {
			g.step()
			if g.allCollected(ring...) {
				break
			}
		}
		return steps
	}
	withWave := run(false)
	withoutWave := run(true)
	if withoutWave <= withWave {
		t.Fatalf("ablation not slower: with wave %d steps, without %d", withWave, withoutWave)
	}
}

// --- Message / response codecs --------------------------------------------

func TestMessageCodecRoundTrip(t *testing.T) {
	m := Message{
		Sender:    ids.ActivityID{Node: 7, Seq: 42},
		Clock:     lamport.Clock{Value: 99, Owner: ids.ActivityID{Node: 1, Seq: 3}},
		Consensus: true,
	}
	buf := EncodeMessage(m)
	if len(buf) > MaxMessageSize {
		t.Fatalf("encoded size = %d, over the bound %d", len(buf), MaxMessageSize)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round-trip = %+v, want %+v", got, m)
	}
	// With a target, and with the owner elided because it is the sender.
	for _, ob := range []Outbound{
		{To: ids.ActivityID{Node: 2, Seq: 8}, Msg: m},
		{To: ids.ActivityID{Node: 2, Seq: 8}, Msg: Message{Sender: m.Sender, Clock: lamport.Clock{Value: 5, Owner: m.Sender}}},
	} {
		var r wire.Reader
		r.Reset(AppendMessage(nil, ob), ErrBadRecord)
		if got := ReadMessage(&r); r.Done() != nil || got != ob {
			t.Fatalf("record round-trip = %+v, %v, want %+v", got, r.Err(), ob)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	sent := lamport.Clock{Value: 5, Owner: ids.ActivityID{Node: 2, Seq: 9}}
	for _, resp := range []Response{
		{Clock: sent, HasParent: true, ConsensusReached: true},
		{Clock: lamport.Clock{Value: 6, Owner: sent.Owner}, HasParent: true, Depth: 3},
	} {
		buf := AppendResponse(nil, &resp, sent)
		if len(buf) > MaxResponseSize {
			t.Fatalf("encoded size = %d, over the bound %d", len(buf), MaxResponseSize)
		}
		var r wire.Reader
		r.Reset(buf, ErrBadRecord)
		if got, present := ReadResponse(&r, sent); r.Done() != nil || !present || got != resp {
			t.Fatalf("round-trip = %+v, %v, %v, want %+v", got, present, r.Err(), resp)
		}
	}
	// An absent response (target gone) is its one flags byte.
	var r wire.Reader
	r.Reset(AppendResponse(nil, nil, sent), ErrBadRecord)
	if _, present := ReadResponse(&r, sent); present || r.Len() != 0 || r.Done() != nil {
		t.Fatalf("absent response read back present=%v err=%v", present, r.Err())
	}
}

// TestCodecShortBuffers: every proper prefix of a record is refused.
func TestCodecShortBuffers(t *testing.T) {
	m := Message{
		Sender: ids.ActivityID{Node: 300, Seq: 70000},
		Clock:  lamport.Clock{Value: 1 << 40, Owner: ids.ActivityID{Node: 1, Seq: 2}},
	}
	buf := EncodeMessage(m)
	for n := range buf {
		if _, err := DecodeMessage(buf[:n]); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("DecodeMessage accepted a %d-byte prefix of %d: %v", n, len(buf), err)
		}
	}
	resp := Response{Clock: m.Clock, HasParent: true, Depth: 1 << 20}
	buf = AppendResponse(nil, &resp, lamport.Clock{})
	for n := range buf {
		var r wire.Reader
		r.Reset(buf[:n], ErrBadRecord)
		ReadResponse(&r, lamport.Clock{})
		if r.Done() == nil {
			t.Fatalf("ReadResponse accepted a %d-byte prefix of %d", n, len(buf))
		}
	}
}

// TestCodecWorstCaseBounds holds a record with every identifier, clock
// and depth field at its maximum, and nothing elided, to exactly the
// bounds §4.3's O(1) message size rests on, and the shortest message
// record to the size that caps a payload's record count.
func TestCodecWorstCaseBounds(t *testing.T) {
	maxID := ids.ActivityID{Node: math.MaxUint32, Seq: math.MaxUint32}
	other := ids.ActivityID{Node: math.MaxUint32, Seq: math.MaxUint32 - 1}
	clock := lamport.Clock{Value: math.MaxUint64, Owner: other}
	for _, c := range []struct {
		name      string
		enc       []byte
		want, max int
	}{
		{"message", AppendMessage(nil, Outbound{To: maxID, Msg: Message{Sender: maxID, Clock: clock, Consensus: true}}),
			MaxMessageSize, 41},
		{"response", AppendResponse(nil, &Response{Clock: clock, HasParent: true, ConsensusReached: true, Depth: math.MaxUint32},
			lamport.Clock{}), MaxResponseSize, 26},
	} {
		if len(c.enc) != c.want || c.want != c.max {
			t.Errorf("worst-case %s record = %d B, bound %d B, documented %d B", c.name, len(c.enc), c.want, c.max)
		}
	}
	small := ids.ActivityID{Node: 1, Seq: 1}
	if got := AppendMessage(nil, Outbound{To: small, Msg: Message{Sender: small, Clock: lamport.Clock{Owner: small}}}); len(got) != MinMessageSize {
		t.Errorf("shortest message record = %d B, MinMessageSize %d B", len(got), MinMessageSize)
	}
}

// --- Config, accessors, enums ---------------------------------------------

func TestConfigValidate(t *testing.T) {
	ok := Config{TTB: 30 * time.Second, TTA: 61 * time.Second}
	if err := ok.Validate(0); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := ok.Validate(time.Second); err == nil {
		t.Fatal("TTA=61 TTB=30 MaxComm=1s must be rejected (61 <= 61)")
	}
	bad := Config{TTB: 0, TTA: time.Minute}
	if err := bad.Validate(0); err == nil {
		t.Fatal("zero TTB must be rejected")
	}
	tight := Config{TTB: 30 * time.Second, TTA: 60 * time.Second}
	if err := tight.Validate(0); err == nil {
		t.Fatal("TTA == 2*TTB must be rejected (strict inequality)")
	}
}

func TestEnumStrings(t *testing.T) {
	if StatusLive.String() != "live" || StatusDying.String() != "dying" || StatusTerminated.String() != "terminated" {
		t.Fatal("status strings wrong")
	}
	if Status(99).String() == "" || Reason(99).String() == "" || EventKind(99).String() == "" {
		t.Fatal("unknown enum values must still format")
	}
	for _, k := range []EventKind{
		EventClockAdvanced, EventParentAdopted, EventReferencerAdded,
		EventReferencerExpired, EventReferencedAdded, EventReferencedLost,
		EventConsensusDetected, EventEnteredDying, EventTerminated,
	} {
		if k.String() == "" {
			t.Fatalf("event kind %d has empty string", k)
		}
	}
	if ReasonNone.String() != "none" || ReasonAcyclic.String() != "acyclic" {
		t.Fatal("reason strings wrong")
	}
}

func TestCollectorAccessors(t *testing.T) {
	now := time.Unix(0, 0)
	cfg := Config{TTB: testTTB, TTA: testTTA}
	c := New(id(1), cfg, func() bool { return false }, now)
	if c.ID() != id(1) {
		t.Fatal("ID mismatch")
	}
	if c.Status() != StatusLive {
		t.Fatal("fresh collector must be live")
	}
	if c.TerminationReason() != ReasonNone {
		t.Fatal("fresh collector must have no termination reason")
	}
	if c.Clock().Owner != id(1) || c.Clock().Value != 1 {
		t.Fatalf("initial clock = %v, want self-owned value 1", c.Clock())
	}
	if !c.Parent().IsNil() {
		t.Fatal("fresh collector must have no parent")
	}
	if c.String() == "" {
		t.Fatal("String() must not be empty")
	}
	c.Terminate(now)
	if c.Status() != StatusTerminated {
		t.Fatal("Terminate did not terminate")
	}
	c.Terminate(now) // idempotent
	// All entry points must be safe after termination.
	c.BecomeIdle(now)
	c.AddReferenced(id(2), now)
	c.LostReferenced(id(2), now)
	c.HandleResponse(id(2), Response{}, now)
	res := c.Tick(now)
	if !res.Terminated {
		t.Fatal("Tick on a terminated collector must report Terminated")
	}
	resp := c.HandleMessage(Message{Sender: id(3), Clock: lamport.Clock{Value: 1, Owner: id(3)}}, now)
	if !resp.ConsensusReached {
		t.Fatal("terminated collector must answer with the dying wave")
	}
}

func TestHandleMessageMergesClockAndDropsParent(t *testing.T) {
	now := time.Unix(0, 0)
	cfg := Config{TTB: testTTB, TTA: testTTA}
	idle := true
	a := New(id(1), cfg, func() bool { return idle }, now)
	a.AddReferenced(id(9), now)
	// Give a a parent by faking a matching response.
	a.HandleResponse(id(9), Response{Clock: a.Clock(), HasParent: true}, now)
	if !a.Parent().IsNil() {
		t.Fatal("owner must not adopt a parent (it is the originator)")
	}
	// Raise a's clock from a message, then check parent/ownership changes.
	high := lamport.Clock{Value: 100, Owner: id(2)}
	resp := a.HandleMessage(Message{Sender: id(2), Clock: high}, now)
	if a.Clock() != high {
		t.Fatalf("clock not merged: %v", a.Clock())
	}
	if !resp.Clock.Equal(high) {
		t.Fatalf("response clock = %v, want merged %v", resp.Clock, high)
	}
	if resp.HasParent {
		t.Fatal("non-owner without parent must respond HasParent=false")
	}
	// Now a can adopt a parent for the foreign clock.
	a.HandleResponse(id(9), Response{Clock: high, HasParent: true}, now)
	if a.Parent() != id(9) {
		t.Fatalf("parent = %v, want id(9)", a.Parent())
	}
	// A lower clock must not regress the merged one.
	a.HandleMessage(Message{Sender: id(3), Clock: lamport.Clock{Value: 1, Owner: id(3)}}, now)
	if a.Clock() != high {
		t.Fatalf("clock regressed to %v", a.Clock())
	}
	if a.Parent() != id(9) {
		t.Fatal("parent dropped by a non-advancing message")
	}
}

func TestResponseClockNeverMergedIntoOwnClock(t *testing.T) {
	// Fig. 4's rule at the unit level: a response carrying a higher clock
	// must not advance the receiver's clock.
	now := time.Unix(0, 0)
	cfg := Config{TTB: testTTB, TTA: testTTA}
	a := New(id(1), cfg, func() bool { return true }, now)
	a.AddReferenced(id(2), now)
	before := a.Clock()
	a.HandleResponse(id(2), Response{Clock: lamport.Clock{Value: 999, Owner: id(2)}, HasParent: true}, now)
	if a.Clock() != before {
		t.Fatalf("response advanced the clock: %v → %v", before, a.Clock())
	}
}

func TestBecomeIdleTicksAndTakesOwnership(t *testing.T) {
	now := time.Unix(0, 0)
	cfg := Config{TTB: testTTB, TTA: testTTA}
	a := New(id(1), cfg, func() bool { return true }, now)
	// Adopt a foreign clock first.
	a.HandleMessage(Message{Sender: id(2), Clock: lamport.Clock{Value: 10, Owner: id(2)}}, now)
	a.BecomeIdle(now)
	got := a.Clock()
	if got.Owner != id(1) || got.Value != 11 {
		t.Fatalf("BecomeIdle clock = %v, want A1.1:11", got)
	}
}
