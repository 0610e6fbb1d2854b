package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
)

func TestHealthLifecycle(t *testing.T) {
	h := NewHealth(HealthConfig{SuspectAfter: 100 * time.Millisecond, DeadAfter: 200 * time.Millisecond})
	t0 := time.Unix(0, 0)
	h.Add(1, t0)
	if got := h.StateOf(1); got != StateAlive {
		t.Fatalf("after Add: state = %v, want alive", got)
	}

	// Fresh contact keeps the member alive through a tick.
	h.Observe(1, t0.Add(50*time.Millisecond))
	probe, dead := h.Tick(t0.Add(120 * time.Millisecond))
	if len(probe) != 0 || len(dead) != 0 {
		t.Fatalf("tick with fresh contact: probe=%v dead=%v", probe, dead)
	}

	// Silence past SuspectAfter suspects (and schedules a probe).
	probe, dead = h.Tick(t0.Add(200 * time.Millisecond))
	if !reflect.DeepEqual(probe, []ids.NodeID{1}) || len(dead) != 0 {
		t.Fatalf("tick past suspect threshold: probe=%v dead=%v", probe, dead)
	}
	if got := h.StateOf(1); got != StateSuspect {
		t.Fatalf("state = %v, want suspect", got)
	}

	// A successful probe resurrects the suspect.
	h.Observe(1, t0.Add(210*time.Millisecond))
	if got := h.StateOf(1); got != StateAlive {
		t.Fatalf("after probe success: state = %v, want alive", got)
	}

	// Suspect past DeadAfter dies; the transition is reported exactly once.
	h.ObserveFailure(1, t0.Add(300*time.Millisecond))
	probe, dead = h.Tick(t0.Add(501 * time.Millisecond))
	if len(probe) != 0 || !reflect.DeepEqual(dead, []ids.NodeID{1}) {
		t.Fatalf("tick past dead threshold: probe=%v dead=%v", probe, dead)
	}
	if _, dead2 := h.Tick(t0.Add(600 * time.Millisecond)); len(dead2) != 0 {
		t.Fatalf("death reported twice: %v", dead2)
	}

	// Death is final: neither Observe nor Add resurrects.
	h.Observe(1, t0.Add(700*time.Millisecond))
	h.Add(1, t0.Add(700*time.Millisecond))
	if got := h.StateOf(1); got != StateDead {
		t.Fatalf("after post-death contact: state = %v, want dead", got)
	}
}

func TestHealthSuspectDeadlineDoesNotSlip(t *testing.T) {
	h := NewHealth(HealthConfig{SuspectAfter: 100 * time.Millisecond, DeadAfter: 100 * time.Millisecond})
	t0 := time.Unix(0, 0)
	h.Add(7, t0)
	h.ObserveFailure(7, t0.Add(10*time.Millisecond))
	// Repeated failures must not reset the countdown.
	h.ObserveFailure(7, t0.Add(90*time.Millisecond))
	_, dead := h.Tick(t0.Add(115 * time.Millisecond))
	if !reflect.DeepEqual(dead, []ids.NodeID{7}) {
		t.Fatalf("dead = %v, want [7] (suspectAt must not slip forward)", dead)
	}
}

func TestHealthMarkDeadAndLeft(t *testing.T) {
	h := NewHealth(HealthConfig{SuspectAfter: time.Second, DeadAfter: time.Second})
	now := time.Unix(0, 0)
	h.Add(1, now)
	h.Add(2, now)
	if !h.MarkDead(1) {
		t.Fatal("first MarkDead must report a change")
	}
	if h.MarkDead(1) {
		t.Fatal("second MarkDead must be a no-op")
	}
	if !h.MarkLeft(2) || h.MarkLeft(2) {
		t.Fatal("MarkLeft must change exactly once")
	}
	// Tombstone for a member never heard of: late node-up cannot resurrect.
	if !h.MarkDead(9) {
		t.Fatal("MarkDead on unknown member must install a tombstone")
	}
	h.Add(9, now)
	if got := h.StateOf(9); got != StateDead {
		t.Fatalf("state(9) = %v, want dead", got)
	}
	snap := h.Snapshot()
	if snap[1] != StateDead || snap[2] != StateLeft || snap[9] != StateDead {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestLeaserDisjointBlocks(t *testing.T) {
	l := NewLeaser(1)
	f1, c1 := l.Grant(64)
	f2, c2 := l.Grant(64)
	if f1 != 1 || c1 != 64 {
		t.Fatalf("first grant = (%v, %d)", f1, c1)
	}
	if f2 != 65 || c2 != 64 {
		t.Fatalf("second grant = (%v, %d), overlaps the first", f2, c2)
	}
	if f, c := l.Grant(0); f != 129 || c != 1 {
		t.Fatalf("zero-size grant = (%v, %d), want clamped to 1", f, c)
	}
	// Node 0 is reserved for process-addressed traffic.
	if f, _ := NewLeaser(0).Grant(1); f != 1 {
		t.Fatalf("leaser from 0 granted %v, want 1", f)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	j := Join{Addr: "127.0.0.1:4242", Want: 64}
	gotJ, err := DecodeJoin(EncodeJoin(j))
	if err != nil || gotJ != j {
		t.Fatalf("join round-trip = %+v, %v", gotJ, err)
	}

	ok := JoinOK{First: 65, Count: 64, Members: []Member{
		{Node: 1, Addr: "127.0.0.1:1111"},
		{Node: 2, Addr: ""},
	}}
	gotOK, err := DecodeJoinOK(EncodeJoinOK(ok))
	if err != nil || !reflect.DeepEqual(gotOK, ok) {
		t.Fatalf("joinOK round-trip = %+v, %v", gotOK, err)
	}

	lease := Lease{Want: 32}
	gotL, err := DecodeLease(EncodeLease(lease))
	if err != nil || gotL != lease {
		t.Fatalf("lease round-trip = %+v, %v", gotL, err)
	}
	lok := LeaseOK{First: 129, Count: 32}
	gotLOK, err := DecodeLeaseOK(EncodeLeaseOK(lok))
	if err != nil || gotLOK != lok {
		t.Fatalf("leaseOK round-trip = %+v, %v", gotLOK, err)
	}

	for _, kind := range []byte{MsgNodeUp, MsgNodeDead, MsgNodeLeft} {
		ev := NodeEvent{Node: 42, Addr: "10.0.0.1:99"}
		gotKind, gotEv, err := DecodeNodeEvent(EncodeNodeEvent(kind, ev))
		if err != nil || gotKind != kind || gotEv != ev {
			t.Fatalf("event %d round-trip = (%d, %+v, %v)", kind, gotKind, gotEv, err)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	if _, err := DecodeJoin(nil); err == nil {
		t.Fatal("DecodeJoin(nil) must fail")
	}
	if _, err := DecodeJoin([]byte{MsgJoin, 0xFF}); err == nil {
		t.Fatal("truncated join must fail")
	}
	if _, err := DecodeJoinOK([]byte{MsgJoinOK, 1, 64, 200}); err == nil {
		t.Fatal("joinOK with absurd member count must fail")
	}
	if _, _, err := DecodeNodeEvent([]byte{MsgPing}); err == nil {
		t.Fatal("event decode of a ping must fail")
	}
}

func TestDecodeResponse(t *testing.T) {
	for _, p := range [][]byte{EncodePong(), EncodeAck(), EncodeLeaseOK(LeaseOK{First: 1, Count: 1})} {
		if err := DecodeResponse(p); err != nil {
			t.Fatalf("DecodeResponse(%v) = %v", p, err)
		}
	}
	if err := DecodeResponse(EncodeErr("not the seed")); err == nil {
		t.Fatal("MsgErr must surface an error")
	}
	if err := DecodeResponse(nil); err == nil {
		t.Fatal("empty response must fail")
	}
	if err := DecodeResponse([]byte{0xEE}); err == nil {
		t.Fatal("unknown kind must fail")
	}
}
