package active

import (
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// orderRecorder is a behavior that records the order its "item" requests
// are served in; "block" parks the serve loop on a gate so the test can
// queue requests behind it, signalling blocked when the park begins.
type orderRecorder struct {
	mu      sync.Mutex
	order   []int64
	gate    chan struct{}
	blocked chan struct{}
}

func newOrderRecorder() *orderRecorder {
	return &orderRecorder{gate: make(chan struct{}), blocked: make(chan struct{}, 1)}
}

func (r *orderRecorder) service() *Service {
	return NewService(
		Method("block", func(_ *Context, _ struct{}) (struct{}, error) {
			select {
			case r.blocked <- struct{}{}:
			default:
			}
			<-r.gate
			return struct{}{}, nil
		}),
		Method("item", func(_ *Context, x int64) (struct{}, error) {
			r.mu.Lock()
			r.order = append(r.order, x)
			r.mu.Unlock()
			return struct{}{}, nil
		}),
		Method("urgent", func(_ *Context, x int64) (struct{}, error) {
			r.mu.Lock()
			r.order = append(r.order, -x)
			r.mu.Unlock()
			return struct{}{}, nil
		}),
		Method("drain", func(_ *Context, _ struct{}) (struct{}, error) {
			return struct{}{}, nil
		}),
	)
}

// queueAndDrain blocks the activity, queues the given requests, releases
// the gate and waits for the terminal "drain" to be served, returning the
// recorded order.
func queueAndDrain(t *testing.T, h *Handle, r *orderRecorder, reqs func(send func(method string, x int64))) []int64 {
	t.Helper()
	blockFut, err := h.Call("block", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	// Make sure "block" is being served before queueing, so the queued
	// requests all sit pending together.
	<-r.blocked
	sent := 0
	reqs(func(method string, x int64) {
		if err := h.Send(method, wire.Int(x)); err != nil {
			t.Fatal(err)
		}
		sent++
	})
	// Every queued request must be pending before the gate opens, so the
	// policy ranks the full set.
	ao, ok := h.Node().activity(mustRef(t, h.Ref()))
	if !ok {
		t.Fatal("activity not found")
	}
	waitUntil(t, func() bool { return ao.queue.pendingCount() == sent }, 5*time.Second)
	close(r.gate)
	if _, err := blockFut.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// drain is sent AFTER the gate opened, so LIFO may serve it before
	// the oldest queued item: wait for the items themselves as well.
	if _, err := h.CallSync("drain", wire.Null(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.order) == sent
	}, 5*time.Second)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, len(r.order))
	copy(out, r.order)
	return out
}

func eqOrder(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPolicyLIFO(t *testing.T) {
	e := testEnv(t)
	r := newOrderRecorder()
	h := e.NewNode().NewActive("lifo", r.service(), WithPolicy(LIFO()))
	defer h.Release()
	got := queueAndDrain(t, h, r, func(send func(string, int64)) {
		for i := int64(1); i <= 5; i++ {
			send("item", i)
		}
	})
	if !eqOrder(got, []int64{5, 4, 3, 2, 1}) {
		t.Fatalf("LIFO served %v", got)
	}
}

func TestPolicyPriorityByMethod(t *testing.T) {
	e := testEnv(t)
	r := newOrderRecorder()
	h := e.NewNode().NewActive("prio", r.service(),
		WithPolicy(PriorityByMethod(map[string]int{"urgent": 10})))
	defer h.Release()
	got := queueAndDrain(t, h, r, func(send func(string, int64)) {
		send("item", 1)
		send("urgent", 1)
		send("item", 2)
		send("urgent", 2)
	})
	// urgent first (recorded negated), FIFO within each class.
	if !eqOrder(got, []int64{-1, -2, 1, 2}) {
		t.Fatalf("priority served %v", got)
	}
}

// TestServeNextSelective: the paper's mid-service selective serve — a
// behavior gathers specific requests with Context.ServeNext(ServeOldest)
// while other pending requests wait their regular turn.
func TestServeNextSelective(t *testing.T) {
	e := testEnv(t)
	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	svc := NewService(
		Method("batch", func(ctx *Context, want int64) (int64, error) {
			note("batch-start")
			for i := int64(0); i < want; i++ {
				if err := ctx.ServeNext(ServeOldest("item")); err != nil {
					return i, err
				}
			}
			note("batch-end")
			return want, nil
		}),
		Method("item", func(_ *Context, x int64) (struct{}, error) {
			note("item")
			return struct{}{}, nil
		}),
		Method("noise", func(_ *Context, _ struct{}) (struct{}, error) {
			note("noise")
			return struct{}{}, nil
		}),
	)
	h := e.NewNode().NewActive("gatherer", svc)
	defer h.Release()

	fut, err := h.Call("batch", wire.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	// batch must be running (blocked in ServeNext) before noise is sent,
	// so noise demonstrably sits pending across the gathering.
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) > 0 && order[0] == "batch-start"
	}, 5*time.Second)
	if err := h.Send("noise", wire.Null()); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := h.Send("item", wire.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fut.Wait(5 * time.Second)
	if err != nil || got.AsInt() != 3 {
		t.Fatalf("batch = %v, %v", got, err)
	}
	// noise was pending the whole time but ServeNext(ServeOldest("item"))
	// skipped it; it is served after batch completes.
	if _, err := h.CallSync("drain", wire.Null(), 5*time.Second); err == nil {
		t.Fatal("drain is not a method; want dispatch error")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"batch-start", "item", "item", "item", "batch-end", "noise"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestPolicyHeldRequestsNeverIdle is the PR 4 satellite fix's regression
// test: an activity whose policy holds pending-but-unselected requests
// must never be reported idle to the DGC — even fully unreferenced, it
// still owes those callers a service and cannot be collected.
func TestPolicyHeldRequestsNeverIdle(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	r := newOrderRecorder()
	defer close(r.gate)
	// ServeOldest("item") as a standing policy: "block" requests are held
	// forever (never selected).
	h := n.NewActive("holder", r.service(), WithPolicy(ServeOldest("item")))
	ao, ok := n.activity(mustRef(t, h.Ref()))
	if !ok {
		t.Fatal("activity not found")
	}
	if err := h.Send("block", wire.Null()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return ao.queue.pendingCount() == 1 }, 5*time.Second)
	// Drop the only reference: with the idle bug this would let the DGC
	// collect an activity that still owes a service.
	h.Release()
	dgcSettle(t, e, n) // many TimeToAlone periods pass
	if ao.isIdle() {
		t.Fatal("activity with policy-held requests reported idle")
	}
	if e.LiveActivities() != 1 {
		t.Fatalf("live = %d; the DGC collected an activity with pending requests", e.LiveActivities())
	}
	// The held "block" request is never selected by this policy; teardown
	// (env close) disposes of it.
}
