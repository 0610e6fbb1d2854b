package active

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// TestFutureWaitZeroBlocksForever pins the Wait(0) contract (the
// satellite fix of PR 4): a zero — or negative — timeout is
// wait-by-necessity, blocking until resolution, never an immediate poll.
// TryGet is the non-blocking probe.
func TestFutureWaitZeroBlocksForever(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	gate := make(chan struct{})
	defer close(gate)
	h := n.NewActive("slow", NewService(
		Method("go", func(_ *Context, _ struct{}) (int64, error) {
			<-gate
			return 7, nil
		})))
	defer h.Release()
	fut, err := h.Call("go", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fut.TryGet(); ok {
		t.Fatal("TryGet reported an unresolved future as resolved")
	}
	type res struct {
		v   wire.Value
		err error
	}
	waited := make(chan res, 2)
	for _, timeout := range []time.Duration{0, -time.Second} {
		go func(d time.Duration) {
			v, werr := fut.Wait(d)
			waited <- res{v, werr}
		}(timeout)
	}
	select {
	case r := <-waited:
		t.Fatalf("Wait(<=0) returned before resolution: %v, %v", r.v, r.err)
	case <-time.After(100 * time.Millisecond):
		// Good: both waiters are blocked, not polling.
	}
	gate <- struct{}{}
	for i := 0; i < 2; i++ {
		select {
		case r := <-waited:
			if r.err != nil || r.v.AsInt() != 7 {
				t.Fatalf("Wait = %v, %v", r.v, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wait(<=0) did not return after resolution")
		}
	}
}

// TestForwardedFutureFlattening: a callee that returns a future (a typed
// handler returning *TypedFuture) resolves the caller's future with the
// *concrete* downstream value — the runtime chains future-of-future
// resolutions, so Wait never yields a bare future reference.
func TestForwardedFutureFlattening(t *testing.T) {
	e := testEnv(t)
	n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()

	// The worker parks until the test has proven the forward happened, so
	// the future the front desk returns is unresolved by construction.
	gate := make(chan struct{})
	worker := n3.NewActive("worker", NewService(
		Method("slow", func(_ *Context, x int64) (int64, error) {
			<-gate
			return x * 2, nil
		})))
	defer worker.Release()
	if err := e.RegisterName("worker", worker.Ref()); err != nil {
		t.Fatal(err)
	}

	front := n2.NewActive("front", NewService(
		// The front desk forwards: it returns the worker's future without
		// waiting, staying free to serve the next request immediately.
		Method("order", func(ctx *Context, x int64) (*TypedFuture[int64], error) {
			w, err := ctx.Lookup("worker")
			if err != nil {
				return nil, err
			}
			return CallTyped[int64](ctx, w, "slow", x)
		})))
	defer front.Release()

	client, err := n1.HandleFor(front.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Release()
	done := make(chan struct{})
	var got int64
	var callErr error
	go func() {
		got, callErr = NewStub[int64, int64](client, "order").CallSync(21, 10*time.Second)
		close(done)
	}()
	// The worker serving "slow" proves the front desk forwarded the call
	// and returned the unresolved future; only then may it resolve.
	workerAO, ok := n3.activity(mustRef(t, worker.Ref()))
	if !ok {
		t.Fatal("worker activity not found")
	}
	waitUntil(t, func() bool { return !workerAO.isIdle() }, 5*time.Second)
	close(gate)
	<-done
	if callErr != nil {
		t.Fatal(callErr)
	}
	if got != 42 {
		t.Fatalf("flattened result = %d, want 42", got)
	}
}

// TestForwardedFutureLocalHop: forwarding a future between two activities
// on the same node takes the intra-node delivery; the receiving activity
// lifts and waits on the home entry directly.
func TestForwardedFutureLocalHop(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	gate := make(chan struct{})
	producer := n.NewActive("producer", NewService(
		Method("compute", func(_ *Context, _ struct{}) (string, error) {
			<-gate
			return "local", nil
		})))
	defer producer.Release()
	if err := e.RegisterName("producer", producer.Ref()); err != nil {
		t.Fatal(err)
	}
	sink := n.NewActive("sink", NewService(
		Method("consume", func(ctx *Context, req struct {
			Fut wire.Value `wire:"fut"`
		}) (string, error) {
			f, err := FutureFor[string](ctx, req.Fut)
			if err != nil {
				return "", err
			}
			return f.Wait(5 * time.Second)
		})))
	defer sink.Release()
	if err := e.RegisterName("sink", sink.Ref()); err != nil {
		t.Fatal(err)
	}
	head := n.NewActive("head", NewService(
		Method("start", func(ctx *Context, _ struct{}) (*TypedFuture[string], error) {
			p, err := ctx.Lookup("producer")
			if err != nil {
				return nil, err
			}
			fut, err := CallTyped[string](ctx, p, "compute", struct{}{})
			if err != nil {
				return nil, err
			}
			s, err := ctx.Lookup("sink")
			if err != nil {
				return nil, err
			}
			// Forward the unresolved future to a same-node activity and
			// return ITS future: two chained flattenings.
			return CallTyped[string](ctx, s, "consume", struct {
				Fut *TypedFuture[string] `wire:"fut"`
			}{Fut: fut})
		})))
	defer head.Release()

	stub := NewStub[struct{}, string](head, "start")
	done := make(chan struct{})
	var got string
	var err error
	go func() {
		got, err = stub.CallSync(struct{}{}, 10*time.Second)
		close(done)
	}()
	// The sink mid-service (parked in its lifted Wait) proves both
	// forwardings happened before the producer resolves.
	sinkAO, ok := n.activity(mustRef(t, sink.Ref()))
	if !ok {
		t.Fatal("sink activity not found")
	}
	waitUntil(t, func() bool {
		return !sinkAO.isIdle() && sinkAO.queue.pendingCount() == 0
	}, 5*time.Second)
	close(gate)
	<-done
	if err != nil || got != "local" {
		t.Fatalf("local-hop forward = %q, %v", got, err)
	}
}

// TestChainedFutureOwnerTerminated: the owner of a future that resolved
// to another future terminates, and then the inner future resolves. The
// outer future fails with ErrOwnerTerminated, as an unchained one does,
// and a local activity it was forwarded to wakes with that failure
// instead of waiting out its timeout.
func TestChainedFutureOwnerTerminated(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	gate := make(chan struct{})
	worker := n.NewActive("worker", NewService(
		Method("slow", func(_ *Context, _ struct{}) (int64, error) {
			<-gate
			return 42, nil
		})))
	defer worker.Release()
	relay := n.NewActive("relay", NewService(
		// Returns the worker's unresolved future: the caller's future
		// chains onto it.
		Method("fwd", func(ctx *Context, _ struct{}) (*TypedFuture[int64], error) {
			return CallTyped[int64](ctx, worker.Ref(), "slow", struct{}{})
		})))
	defer relay.Release()
	type outcome struct {
		v   int64
		err error
	}
	lifted, waited := make(chan struct{}), make(chan outcome, 1)
	sink := n.NewActive("sink", NewService(
		Method("consume", func(ctx *Context, req struct {
			Fut wire.Value `wire:"fut"`
		}) (struct{}, error) {
			f, err := FutureFor[int64](ctx, req.Fut)
			if err != nil {
				return struct{}{}, err
			}
			close(lifted)
			v, err := f.Wait(10 * time.Second)
			waited <- outcome{v, err}
			return struct{}{}, nil
		})))
	defer sink.Release()
	var outer *Future
	head := n.NewActive("head", NewService(
		Method("start", func(ctx *Context, _ struct{}) (struct{}, error) {
			f, err := CallTyped[int64](ctx, relay.Ref(), "fwd", struct{}{})
			if err != nil {
				return struct{}{}, err
			}
			outer = f.Raw()
			return struct{}{}, SendTyped(ctx, sink.Ref(), "consume", struct {
				Fut *TypedFuture[int64] `wire:"fut"`
			}{Fut: f})
		})))
	if _, err := NewStub[struct{}, struct{}](head, "start").CallSync(struct{}{}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The sink holds the outer future, which is chain-waiting.
	<-lifted
	waitUntil(t, func() bool {
		outer.mu.Lock()
		defer outer.mu.Unlock()
		return outer.chainWait
	}, 5*time.Second)
	head.Terminate()
	close(gate)
	select {
	case o := <-waited:
		if !errors.Is(o.err, ErrOwnerTerminated) {
			t.Fatalf("forwarded chained future = %d, %v; want ErrOwnerTerminated", o.v, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded chained future never resolved after its owner terminated")
	}
}

// TestFutureTableSweep: the future table must not accumulate entries —
// resolved, consumed, unpinned entries are reclaimed by the driver sweep
// on every node, including proxies adopted for forwarded futures.
func TestFutureTableSweep(t *testing.T) {
	e := testEnv(t)
	n1, n2 := e.NewNode(), e.NewNode()
	h := n2.NewActive("svc", relay{})
	defer h.Release()
	h1, err := n1.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	for i := 0; i < 32; i++ {
		if _, err := h1.CallSync("echo", wire.Int(int64(i)), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool {
		n1.CollectNow()
		n2.CollectNow()
		return n1.futures.size() == 0 && n2.futures.size() == 0
	}, 10*time.Second)
}

// TestFutureUnavailable: lifting a future value nobody here knows yields
// a pre-failed future, not one that hangs forever.
func TestFutureUnavailable(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("svc", NewService(
		Method("lift", func(ctx *Context, req struct {
			Fut wire.Value `wire:"fut"`
		}) (string, error) {
			f, err := ctx.Future(req.Fut)
			if err != nil {
				return "", err
			}
			_, werr := f.Wait(time.Second)
			if werr == nil {
				return "", errors.New("wait succeeded on an unknown future")
			}
			return werr.Error(), nil
		})))
	defer h.Release()
	// A hand-crafted reference to a future that never existed on a node
	// that does not exist.
	fr := wire.FutureRef{ID: FutureID{Node: 99, Seq: 77}, Owner: ids.ActivityID{Node: 99, Seq: 1}}
	got, err := NewStub[struct {
		Fut wire.Value `wire:"fut"`
	}, string](h, "lift").CallSync(struct {
		Fut wire.Value `wire:"fut"`
	}{Fut: wire.FutureVal(fr)}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The proxy was adopted at decode time (node 99 is not this node), so
	// it waits — and times out — OR, had it been home, it would pre-fail
	// with ErrFutureUnavailable. Either way the service must not wedge.
	if got == "" {
		t.Fatal("no error reported")
	}
}

// TestForwardAfterResolution (review fix): an application that holds a
// live *Future may forward it long after the result arrived — even after
// the fast path removed (or the sweep reclaimed) the table entry —
// because marshaling reinstates the entry and the send walk then ships
// the resolved value to the new holder.
func TestForwardAfterResolution(t *testing.T) {
	e := testEnv(t)
	n1, n2 := e.NewNode(), e.NewNode()
	producer := n1.NewActive("producer", NewService(
		Method("quick", func(_ *Context, _ struct{}) (int64, error) { return 99, nil })))
	defer producer.Release()
	fut, err := producer.Call("quick", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The entry is gone now (never-shared fast path) — or at the latest
	// after these sweeps.
	n1.CollectNow()
	n1.CollectNow()

	sink := n2.NewActive("sink", NewService(
		Method("consume", func(ctx *Context, req struct {
			Fut wire.Value `wire:"fut"`
		}) (int64, error) {
			f, lerr := FutureFor[int64](ctx, req.Fut)
			if lerr != nil {
				return 0, lerr
			}
			return f.Wait(5 * time.Second)
		})))
	defer sink.Release()
	got, err := NewStub[struct {
		Fut *Future `wire:"fut"`
	}, int64](sink, "consume").CallSync(struct {
		Fut *Future `wire:"fut"`
	}{Fut: fut}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("forwarded-after-resolution value = %d, want 99", got)
	}
}

// TestLiftWithinGraceAfterSweep (review fix): a FutureRef unmarshaled
// out of a reply stays liftable for at least a TTA-sized grace after the
// reply's heap pin died, even though sweeps run in between — the same
// slack the reference-listing DGC grants in-flight references.
func TestLiftWithinGraceAfterSweep(t *testing.T) {
	e := testEnv(t)
	n1, n2 := e.NewNode(), e.NewNode()
	front := n2.NewActive("front", NewService(
		Method("order", func(ctx *Context, _ struct{}) (struct {
			Fut *TypedFuture[int64] `wire:"fut"`
		}, error) {
			fut, err := CallTyped[int64](ctx, ctx.Self(), "slow", struct{}{})
			return struct {
				Fut *TypedFuture[int64] `wire:"fut"`
			}{Fut: fut}, err
		}),
		Method("slow", func(_ *Context, _ struct{}) (int64, error) { return 7, nil })))
	defer front.Release()
	client, err := n1.HandleFor(front.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Release()
	// The future rides inside a struct field, so no top-level flattening:
	// the client receives a bare FutureRef.
	resp, err := NewStub[struct{}, struct {
		Fut wire.FutureRef `wire:"fut"`
	}](client, "order").CallSync(struct{}{}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Several sweeps on both nodes: tags die, but the entries must stay
	// for the TTA grace.
	for i := 0; i < 3; i++ {
		n1.CollectNow()
		n2.CollectNow()
	}
	f, err := client.Future(wire.FutureVal(resp.Fut))
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Wait(5 * time.Second)
	if err != nil {
		t.Fatalf("lift within grace failed: %v", err)
	}
	if v.AsInt() != 7 {
		t.Fatalf("lifted value = %v, want 7", v)
	}
}

// TestLateSubscribeFromForeignNode (review fix): a node that never saw a
// future's payload can still lift a hand-carried reference — it adopts a
// proxy and subscribes at the home node (the WIRE.md §6 fallback
// envelope), which serves it when the result arrives.
func TestLateSubscribeFromForeignNode(t *testing.T) {
	e := testEnv(t)
	n1, n2 := e.NewNode(), e.NewNode()
	gate := make(chan struct{})
	defer close(gate)
	producer := n1.NewActive("producer", NewService(
		Method("slow", func(_ *Context, _ struct{}) (int64, error) {
			<-gate
			return 123, nil
		})))
	defer producer.Release()
	fut, err := producer.Call("slow", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := fut.WireFutureRef()
	if !ok {
		t.Fatal("no wire identity")
	}
	// Hand the reference to a different node out of band.
	anchor := n2.NewActive("anchor", relay{})
	defer anchor.Release()
	foreign, err := anchor.Future(wire.FutureVal(fr))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-foreign.Done():
		t.Fatal("foreign proxy resolved before the producer finished")
	case <-time.After(50 * time.Millisecond):
	}
	gate <- struct{}{}
	v, err := foreign.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 123 {
		t.Fatalf("subscribed value = %v, want 123", v)
	}
}
