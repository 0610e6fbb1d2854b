package simnet

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// recorder is a test handler recording deliveries.
type recorder struct {
	mu     sync.Mutex
	oneWay []string
	calls  []string
	reply  []byte
}

func (r *recorder) HandleOneWay(from ids.NodeID, class Class, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.oneWay = append(r.oneWay, string(payload))
}

func (r *recorder) HandleCall(from ids.NodeID, class Class, payload []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, string(payload))
	return r.reply
}

func (r *recorder) received() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.oneWay))
	copy(out, r.oneWay)
	return out
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func TestSendDelivers(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var rec recorder
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	if err := ep.Send(2, ClassApp, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.received()) == 1 })
	if rec.received()[0] != "hi" {
		t.Fatalf("received %v", rec.received())
	}
}

func TestSendFIFOOrder(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var rec recorder
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	const k = 200
	for i := 0; i < k; i++ {
		if err := ep.Send(2, ClassApp, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(rec.received()) == k })
	got := rec.received()
	for i := 0; i < k; i++ {
		if got[i] != string([]byte{byte(i)}) {
			t.Fatalf("out-of-order delivery at %d", i)
		}
	}
}

func TestCallRoundTrip(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	rec := recorder{reply: []byte("pong")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	resp, err := ep.Call(2, ClassDGC, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "pong" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestIntraNodeDirectAndUnaccounted(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	rec := recorder{reply: []byte("r")}
	ep := n.Register(1, &rec)
	if err := ep.Send(1, ClassApp, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call(1, ClassDGC, []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Intra-node delivery is synchronous.
	if len(rec.received()) != 1 {
		t.Fatal("intra-node Send must deliver synchronously")
	}
	if total := n.Snapshot().Total(); total != 0 {
		t.Fatalf("intra-node traffic was accounted: %d bytes", total)
	}
}

func TestAccountingPerClass(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	rec := recorder{reply: []byte("12345")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	if err := ep.Send(2, ClassApp, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call(2, ClassDGC, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if snap.Bytes[ClassApp] != 100 {
		t.Fatalf("app bytes = %d, want 100", snap.Bytes[ClassApp])
	}
	if snap.Bytes[ClassDGC] != 15 { // 10 out + 5 back
		t.Fatalf("dgc bytes = %d, want 15", snap.Bytes[ClassDGC])
	}
	if snap.Messages[ClassDGC] != 2 {
		t.Fatalf("dgc messages = %d, want 2 (msg + response)", snap.Messages[ClassDGC])
	}
	if snap.Total() != 115 {
		t.Fatalf("total = %d, want 115", snap.Total())
	}
	n.ResetCounters()
	if n.Snapshot().Total() != 0 {
		t.Fatal("ResetCounters did not zero counters")
	}
}

func TestUnknownNode(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	ep := n.Register(1, &recorder{})
	if err := ep.Send(99, ClassApp, nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if _, err := ep.Call(99, ClassApp, nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestReachabilityRules(t *testing.T) {
	// Node 2 is behind a NAT: only 1 → 2 connections are allowed.
	n := New(Config{
		Reachable: func(src, dst ids.NodeID) bool {
			return !(src == 2 && dst == 1)
		},
	})
	defer n.Close()
	rec1 := recorder{reply: []byte("r1")}
	rec2 := recorder{reply: []byte("r2")}
	ep1 := n.Register(1, &rec1)
	ep2 := n.Register(2, &rec2)

	// Forward direction works, including the response riding back.
	resp, err := ep1.Call(2, ClassDGC, []byte("m"))
	if err != nil || string(resp) != "r2" {
		t.Fatalf("forward call failed: %v %q", err, resp)
	}
	// Reverse direction is blocked.
	if err := ep2.Send(1, ClassApp, []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if _, err := ep2.Call(1, ClassApp, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestLatencyAppliedToSend(t *testing.T) {
	const lat = 30 * time.Millisecond
	n := New(Config{
		Latency: func(_, _ ids.NodeID) time.Duration { return lat },
	})
	defer n.Close()
	var rec recorder
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	start := time.Now()
	if err := ep.Send(2, ClassApp, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.received()) == 1 })
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("delivered after %v, want >= %v", elapsed, lat)
	}
}

func TestCallPaysRoundTripLatency(t *testing.T) {
	const lat = 20 * time.Millisecond
	n := New(Config{
		Latency: func(_, _ ids.NodeID) time.Duration { return lat },
	})
	defer n.Close()
	rec := recorder{reply: []byte("r")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	start := time.Now()
	if _, err := ep.Call(2, ClassDGC, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*lat {
		t.Fatalf("call took %v, want >= %v (RTT)", elapsed, 2*lat)
	}
}

func TestMaxCommConfigured(t *testing.T) {
	n := New(Config{MaxComm: 42 * time.Millisecond})
	defer n.Close()
	if got := n.MaxComm(); got != 42*time.Millisecond {
		t.Fatalf("MaxComm = %v, want 42ms", got)
	}
}

func TestMaxCommDerived(t *testing.T) {
	n := New(Config{
		Latency: func(src, dst ids.NodeID) time.Duration {
			if src == 1 && dst == 2 {
				return 7 * time.Millisecond
			}
			return time.Millisecond
		},
	})
	defer n.Close()
	n.Register(1, &recorder{})
	n.Register(2, &recorder{})
	if got := n.MaxComm(); got != 7*time.Millisecond {
		t.Fatalf("MaxComm = %v, want 7ms", got)
	}
}

func TestCloseRejectsTraffic(t *testing.T) {
	n := New(Config{})
	ep := n.Register(1, &recorder{})
	n.Register(2, &recorder{})
	n.Close()
	if err := ep.Send(2, ClassApp, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Idempotent close.
	n.Close()
}

func TestClassString(t *testing.T) {
	if ClassApp.String() != "app" || ClassDGC.String() != "dgc" || ClassFuture.String() != "future" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class must still format")
	}
}

func TestConcurrentSendersDistinctPairs(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var rec recorder
	n.Register(10, &rec)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep := n.Register(ids.NodeID(s+1), &recorder{})
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(10, ClassApp, []byte{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	waitFor(t, func() bool { return len(rec.received()) == senders*per })
}

func TestDeregisterMakesNodeUnreachable(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	rec := recorder{reply: []byte("r")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	if _, err := ep.Call(2, ClassDGC, []byte("m")); err != nil {
		t.Fatal(err)
	}
	n.Deregister(2)
	if err := ep.Send(2, ClassApp, []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Send after Deregister = %v, want ErrUnknownNode", err)
	}
	if _, err := ep.Call(2, ClassDGC, nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Call after Deregister = %v, want ErrUnknownNode", err)
	}
	// Re-registering revives the node (restart).
	n.Register(2, &rec)
	if _, err := ep.Call(2, ClassDGC, []byte("m")); err != nil {
		t.Fatalf("Call after re-register = %v", err)
	}
}

func TestKillNodeIsBidirectional(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	rec1 := recorder{reply: []byte("r1")}
	rec2 := recorder{reply: []byte("r2")}
	ep1 := n.Register(1, &rec1)
	ep2 := n.Register(2, &rec2)
	if _, err := ep1.Call(2, ClassDGC, []byte("pre")); err != nil {
		t.Fatal(err)
	}

	n.KillNode(2)

	// Traffic toward the victim vanishes: sends drop silently (a crashed
	// machine acks nothing), calls fail like an unreachable host.
	if err := ep1.Send(2, ClassApp, []byte("x")); err != nil {
		t.Fatalf("Send toward killed = %v, want silent drop", err)
	}
	if _, err := ep1.Call(2, ClassDGC, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Call toward killed = %v, want ErrUnreachable", err)
	}

	// Traffic FROM the victim vanishes too: a dead machine must not keep
	// proving itself alive through its own runtime's outbound frames.
	if err := ep2.Send(1, ClassApp, []byte("ghost")); err != nil {
		t.Fatalf("Send from killed = %v, want silent drop", err)
	}
	if _, err := ep2.Call(1, ClassDGC, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Call from killed = %v, want ErrUnreachable", err)
	}
	time.Sleep(10 * time.Millisecond)
	if got := rec1.received(); len(got) != 0 {
		t.Fatalf("killed node's sends were delivered: %v", got)
	}
	if got := rec2.received(); len(got) != 0 {
		t.Fatalf("sends toward killed node were delivered: %v", got)
	}
}

func TestLinkScheduleSerializesInterfaces(t *testing.T) {
	base := time.Unix(1000, 0)
	n := New(Config{PerMessage: 10 * time.Millisecond})
	defer n.Close()

	// Three messages from the same source to the same destination: each
	// claims the next tx slot (10ms apart), then the next rx slot — the
	// k-th delivery lands at base + (k+1)×10ms.
	for k, want := range []time.Duration{20, 30, 40} {
		got := n.linkSchedule(base, 1, 2, 0)
		if got.Sub(base) != want*time.Millisecond {
			t.Fatalf("msg %d deliverAt = +%v, want +%vms", k, got.Sub(base), want)
		}
	}

	// Distinct sources contend only at the shared receiver.
	n2 := New(Config{PerMessage: 10 * time.Millisecond})
	defer n2.Close()
	if got := n2.linkSchedule(base, 1, 3, 0); got.Sub(base) != 20*time.Millisecond {
		t.Fatalf("src1 deliverAt = +%v, want +20ms", got.Sub(base))
	}
	if got := n2.linkSchedule(base, 2, 3, 0); got.Sub(base) != 30*time.Millisecond {
		t.Fatalf("src2 deliverAt = +%v, want +30ms", got.Sub(base))
	}

	// PerByte extends the occupancy with payload size.
	n3 := New(Config{PerByte: time.Millisecond})
	defer n3.Close()
	if got := n3.linkSchedule(base, 1, 2, 5); got.Sub(base) != 10*time.Millisecond {
		t.Fatalf("5-byte deliverAt = +%v, want +10ms", got.Sub(base))
	}

	// Without interface costs the schedule degenerates to now + latency.
	n4 := New(Config{Latency: func(_, _ ids.NodeID) time.Duration { return 7 * time.Millisecond }})
	defer n4.Close()
	if got := n4.linkSchedule(base, 1, 2, 99); got.Sub(base) != 7*time.Millisecond {
		t.Fatalf("latency-only deliverAt = +%v, want +7ms", got.Sub(base))
	}
}

func TestPerMessageDeliveryEndToEnd(t *testing.T) {
	n := New(Config{PerMessage: 3 * time.Millisecond})
	defer n.Close()
	var rec recorder
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	start := time.Now()
	const k = 5
	for i := 0; i < k; i++ {
		if err := ep.Send(2, ClassApp, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(rec.received()) == k })
	// tx slots at 3,6,..,15ms; the last rx slot opens at 18ms.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("%d messages delivered in %v, want ≥ 15ms of interface serialization", k, elapsed)
	}
	got := rec.received()
	for i := 0; i < k; i++ {
		if got[i] != string([]byte{byte(i)}) {
			t.Fatalf("out-of-order delivery at %d", i)
		}
	}
}

// stamper records each one-way payload's first byte with its arrival time.
type stamper struct {
	mu  sync.Mutex
	seq []byte
	at  []time.Time
}

func (s *stamper) HandleOneWay(_ ids.NodeID, _ Class, p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq = append(s.seq, p[0])
	s.at = append(s.at, time.Now())
}

func (s *stamper) HandleCall(ids.NodeID, Class, []byte) []byte { return nil }

func (s *stamper) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seq)
}

// TestLatencyKeepsOrderAndDeliverAt sends bursts over a link with latency:
// a delivery waits for its deliverAt on a timer while later sends queue
// behind it, and every message still arrives in order, no earlier than
// its send time plus the latency.
func TestLatencyKeepsOrderAndDeliverAt(t *testing.T) {
	const lat, k = 4 * time.Millisecond, 40
	n := New(Config{Latency: func(_, _ ids.NodeID) time.Duration { return lat }})
	defer n.Close()
	var rx stamper
	n.Register(2, &rx)
	ep := n.Register(1, &recorder{})
	sent := make([]time.Time, k)
	for i := 0; i < k; i++ {
		if i%8 == 0 {
			time.Sleep(time.Millisecond)
		}
		sent[i] = time.Now()
		if err := ep.Send(2, ClassApp, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return rx.len() == k })
	rx.mu.Lock()
	defer rx.mu.Unlock()
	for i := 0; i < k; i++ {
		if rx.seq[i] != byte(i) {
			t.Fatalf("delivery %d carried message %d", i, rx.seq[i])
		}
		if early := sent[i].Add(lat).Sub(rx.at[i]); early > 0 {
			t.Fatalf("message %d arrived %v before its deliverAt", i, early)
		}
	}
}

// exchangeAll registers k nodes and has each send one message to every
// other node; it returns how many arrived so far.
func exchangeAll(t *testing.T, n *Network, k int) func() int {
	var got atomic.Int32
	eps := make([]transport.Endpoint, k)
	for i := range eps {
		eps[i] = n.Register(ids.NodeID(i+1), countOneWay{&got})
	}
	for i, ep := range eps {
		for j := range eps {
			if i != j {
				if err := ep.Send(ids.NodeID(j+1), ClassApp, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return func() int { return int(got.Load()) }
}

type countOneWay struct{ n *atomic.Int32 }

func (c countOneWay) HandleOneWay(ids.NodeID, Class, []byte)      { c.n.Add(1) }
func (c countOneWay) HandleCall(ids.NodeID, Class, []byte) []byte { return nil }

// TestIdlePairsStartNoGoroutine exchanges one message per ordered pair of
// 16 nodes on a zero-config network: every delivery runs on its sender,
// and no pair leaves a goroutine behind.
func TestIdlePairsStartNoGoroutine(t *testing.T) {
	const k = 16
	base := runtime.NumGoroutine()
	n := New(Config{})
	defer n.Close()
	got := exchangeAll(t, n, k)
	if got() != k*(k-1) {
		t.Fatalf("delivered %d of %d on return from Send", got(), k*(k-1))
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after the exchange, %d before", g, base)
	}
}

// TestCloseDeliversAcceptedAndLeavesNoGoroutine closes a network whose 240
// messages are all still waiting out their latency: Close delivers every
// one before it returns, and the goroutine count returns to its baseline.
func TestCloseDeliversAcceptedAndLeavesNoGoroutine(t *testing.T) {
	const k = 16
	base := runtime.NumGoroutine()
	n := New(Config{Latency: func(_, _ ids.NodeID) time.Duration { return 20 * time.Millisecond }})
	got := exchangeAll(t, n, k)
	n.Close()
	if got() != k*(k-1) {
		t.Fatalf("Close returned with %d of %d accepted messages delivered", got(), k*(k-1))
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
}
