package active

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/wire"
)

// testEnv returns an Env with compressed timing suitable for tests.
func testEnv(t *testing.T) *Env {
	t.Helper()
	e := NewEnv(Config{
		TTB: 10 * time.Millisecond,
		TTA: 25 * time.Millisecond,
	})
	t.Cleanup(e.Close)
	return e
}

// relay is a general-purpose test behavior:
//
//	"ping"          → returns Int(1)
//	"echo"          → returns its args
//	"set:<key>"     → stores args under key, returns null
//	"get:<key>"     → returns the stored value
//	"del:<key>"     → deletes the key
//	"self"          → returns a reference to itself
//	"stop"          → requests explicit termination
//	"sleep"         → sleeps args ms (stays busy)
//	"callpeer"      → calls method "ping" on the ref stored under "peer"
type relay struct{}

func (relay) Serve(ctx *Context, method string, args wire.Value) (wire.Value, error) {
	switch {
	case method == "ping":
		return wire.Int(1), nil
	case method == "echo":
		return args, nil
	case method == "self":
		return ctx.Self(), nil
	case method == "stop":
		ctx.TerminateSelf()
		return wire.Null(), nil
	case method == "sleep":
		time.Sleep(time.Duration(args.AsInt()) * time.Millisecond)
		return wire.Null(), nil
	case method == "callpeer":
		peer := ctx.Load("peer")
		fut, err := ctx.Call(peer, "ping", wire.Null())
		if err != nil {
			return wire.Null(), err
		}
		return fut.Wait(5 * time.Second)
	case len(method) > 4 && method[:4] == "set:":
		ctx.Store(method[4:], args)
		return wire.Null(), nil
	case len(method) > 4 && method[:4] == "get:":
		return ctx.Load(method[4:]), nil
	case len(method) > 4 && method[:4] == "del:":
		ctx.Delete(method[4:])
		return wire.Null(), nil
	default:
		return wire.Null(), errors.New("unknown method " + method)
	}
}

func TestCallAndFuture(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	defer h.Release()
	got, err := h.CallSync("echo", wire.String("hello"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsString() != "hello" {
		t.Fatalf("echo = %v", got)
	}
}

func TestCallAcrossNodes(t *testing.T) {
	e := testEnv(t)
	n1, n2 := e.NewNode(), e.NewNode()
	h := n2.NewActive("remote", relay{})
	defer h.Release()
	// Call from a handle anchored on another node.
	h1, err := n1.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	got, err := h1.CallSync("ping", wire.Null(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsInt() != 1 {
		t.Fatalf("ping = %v", got)
	}
	// App traffic must have been accounted (distinct nodes).
	if e.Network().Snapshot().Bytes[1] == 0 { // simnet.ClassApp
		t.Fatal("no app bytes accounted for a cross-node call")
	}
}

func TestBehaviorErrorPropagates(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	defer h.Release()
	_, err := h.CallSync("no-such-method", wire.Null(), 5*time.Second)
	if !errors.Is(err, ErrRemoteFailure) {
		t.Fatalf("err = %v, want ErrRemoteFailure", err)
	}
}

func TestHandleKeepsActivityAlive(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("pinned", relay{})
	dgcSettle(t, e, n) // a full reclamation cycle passes; the handle pins
	if e.LiveActivities() != 1 {
		t.Fatalf("live = %d, want 1 (handle is a root)", e.LiveActivities())
	}
	h.Release()
	if _, err := e.WaitCollected(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Collected[core.ReasonAcyclic] != 2 { // the pinned activity + the settle canary
		t.Fatalf("collected = %+v, want two acyclic", st.Collected)
	}
}

// gatedDeleteStore holds every checkpoint Delete until release closes.
// Node.destroy deletes a collected activity's checkpoint after removing
// the activity from its node, so the gate holds a collection mid-way.
type gatedDeleteStore struct {
	store.Store
	release chan struct{}
}

func (s *gatedDeleteStore) Delete(id ids.ActivityID) error {
	<-s.release
	return s.Store.Delete(id)
}

// TestCollectedCountedWhenGone: once WaitCollected has seen an activity
// leave, Stats().Collected counts it, even while the rest of its teardown
// is still running.
func TestCollectedCountedWhenGone(t *testing.T) {
	st := &gatedDeleteStore{Store: store.NewMemStore(), release: make(chan struct{})}
	e := NewEnv(Config{TTB: 10 * time.Millisecond, TTA: 25 * time.Millisecond, Store: st})
	defer e.Close()
	defer close(st.release)
	h, err := e.NewNode().SpawnKind("counter", "test/cluster-counter")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if _, err := e.WaitCollected(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Collected; got[core.ReasonAcyclic] != 1 {
		t.Fatalf("collected = %+v once the activity is gone, want one acyclic", got)
	}
}

func TestReleasedHandleRejectsCalls(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	h.Release()
	if _, err := h.Call("ping", wire.Null()); err == nil {
		t.Fatal("Call through released handle must fail")
	}
	if err := h.Send("ping", wire.Null()); err == nil {
		t.Fatal("Send through released handle must fail")
	}
	h.Release() // idempotent
}

func TestDistributedCycleCollected(t *testing.T) {
	e := testEnv(t)
	n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()
	ha := n1.NewActive("a", relay{})
	hb := n2.NewActive("b", relay{})
	hc := n3.NewActive("c", relay{})

	// Build the cycle a → b → c → a by storing references.
	for _, link := range []struct {
		h  *Handle
		to *Handle
	}{{ha, hb}, {hb, hc}, {hc, ha}} {
		if _, err := link.h.CallSync("set:peer", link.to.Ref(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Verify the edges exist in the reference graph.
	aoA, _ := e.activity(mustRef(t, ha.Ref()))
	if got := aoA.Collector().Referenced(); len(got) != 1 || got[0] != mustRef(t, hb.Ref()) {
		t.Fatalf("a.Referenced() = %v, want [b]", got)
	}

	// While the handles exist, nothing is collected.
	dgcSettle(t, e, n1)
	if e.LiveActivities() != 3 {
		t.Fatalf("live = %d, want 3", e.LiveActivities())
	}

	ha.Release()
	hb.Release()
	hc.Release()
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// At least the consensus maker and one wave recipient die cyclically;
	// a member whose upstream beat stopped early may fall back to the
	// acyclic path, which §4.3 explicitly tolerates.
	st := e.Stats()
	cyclic := st.Collected[core.ReasonCyclic] + st.Collected[core.ReasonNotified]
	if cyclic < 2 {
		t.Fatalf("collected = %+v, want >= 2 cyclic", st.Collected)
	}
	if st.Collected[core.ReasonCyclic] < 1 {
		t.Fatalf("collected = %+v, want a consensus maker", st.Collected)
	}
}

func TestBusyCycleNotCollected(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	gate := make(chan struct{})
	// Cleanups run last-in first-out, so a failed check below still opens
	// the gate before e.Close waits for the parked activity.
	openGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(openGate)
	// a is a relay that can additionally park on a gate, so the test
	// controls exactly when its busy phase ends.
	ha := n.NewActive("a", BehaviorFunc(func(ctx *Context, method string, args wire.Value) (wire.Value, error) {
		if method == "park" {
			<-gate
			return wire.Null(), nil
		}
		return relay{}.Serve(ctx, method, args)
	}))
	hb := n.NewActive("b", relay{})
	if _, err := ha.CallSync("set:peer", hb.Ref(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.CallSync("set:peer", ha.Ref(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Keep a busy on the gate, release both handles.
	if err := ha.Send("park", wire.Null()); err != nil {
		t.Fatal(err)
	}
	ha.Release()
	hb.Release()
	dgcSettle(t, e, n) // many TTAs pass, but a is still busy
	if e.LiveActivities() != 2 {
		t.Fatalf("live = %d during busy phase, want 2", e.LiveActivities())
	}
	// After the busy phase ends the cycle is idle garbage.
	openGate()
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPinsAndUnregisterFrees(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("service", relay{})
	if err := e.RegisterName("svc", h.Ref()); err != nil {
		t.Fatal(err)
	}
	h.Release() // the registry is now the only root
	dgcSettle(t, e, n)
	if e.LiveActivities() != 1 {
		t.Fatalf("registered activity collected: live = %d", e.LiveActivities())
	}
	// A client can look it up and call it.
	ref, err := e.Lookup("svc")
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.HandleFor(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := client.CallSync("ping", wire.Null(), 5*time.Second); err != nil || got.AsInt() != 1 {
		t.Fatalf("lookup call = %v, %v", got, err)
	}
	client.Release()
	e.Unregister("svc")
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Lookup("svc"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("Lookup after Unregister = %v, want ErrUnknownName", err)
	}
}

func TestRegisterErrors(t *testing.T) {
	e := testEnv(t)
	if err := e.RegisterName("x", wire.Int(1)); !errors.Is(err, ErrNotARef) {
		t.Fatalf("err = %v, want ErrNotARef", err)
	}
	ghost := wire.Ref(ids.ActivityID{Node: 99, Seq: 1})
	if err := e.RegisterName("x", ghost); !errors.Is(err, ErrUnknownActivity) {
		t.Fatalf("err = %v, want ErrUnknownActivity", err)
	}
	e.Unregister("never-registered") // no-op
}

func TestExplicitTerminate(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	h.Terminate()
	if _, err := e.WaitCollected(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Calls to the dead activity fail the future instead of hanging.
	h2 := n.NewActive("b", relay{})
	defer h2.Release()
	target := h.Ref()
	ctxHandle, err := n.HandleFor(target)
	if err != nil {
		t.Fatal(err)
	}
	defer ctxHandle.Release()
	_, err = ctxHandle.CallSync("ping", wire.Null(), 2*time.Second)
	if err == nil {
		t.Fatal("call to terminated activity must fail")
	}
}

func TestTerminateSelfViaStop(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	if _, err := h.CallSync("stop", wire.Null(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitCollected(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h.Release()
}

func TestFutureRefsCreateEdges(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	ha := n.NewActive("a", relay{})
	defer ha.Release()
	// Asking a for "self" hands the caller (the node's root, which the
	// handle is a stub of) a reference, which must appear in the root's
	// reference list beside the handle's own edge to a: one entry.
	got, err := ha.CallSync("self", wire.Null(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.AsRef(); !ok {
		t.Fatalf("self = %v, want a ref", got)
	}
	refs := n.root.Collector().Referenced()
	if len(refs) != 1 {
		t.Fatalf("root.Referenced() = %v, want [a]", refs)
	}
}

func TestChainedCallBetweenActivities(t *testing.T) {
	e := testEnv(t)
	n1, n2 := e.NewNode(), e.NewNode()
	ha := n1.NewActive("a", relay{})
	hb := n2.NewActive("b", relay{})
	defer ha.Release()
	defer hb.Release()
	if _, err := ha.CallSync("set:peer", hb.Ref(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := ha.CallSync("callpeer", wire.Null(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsInt() != 1 {
		t.Fatalf("callpeer = %v, want 1", got)
	}
}

func TestStateStoreLoadDelete(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	defer h.Release()
	if _, err := h.CallSync("set:k", wire.Int(42), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := h.CallSync("get:k", wire.Null(), 5*time.Second)
	if err != nil || got.AsInt() != 42 {
		t.Fatalf("get = %v, %v", got, err)
	}
	if _, err := h.CallSync("del:k", wire.Null(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err = h.CallSync("get:k", wire.Null(), 5*time.Second)
	if err != nil || !got.IsNull() {
		t.Fatalf("get after del = %v, %v; want null", got, err)
	}
}

func TestDroppedStateEdgeRemovesReference(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	ha := n.NewActive("a", relay{})
	hb := n.NewActive("b", relay{})
	defer ha.Release()
	if _, err := ha.CallSync("set:peer", hb.Ref(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	aoA, _ := e.activity(mustRef(t, ha.Ref()))
	if len(aoA.Collector().Referenced()) != 1 {
		t.Fatal("edge a→b missing after store")
	}
	if _, err := ha.CallSync("del:peer", wire.Null(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The next sweeps remove the stub tag and then the edge.
	waitUntil(t, func() bool {
		return len(aoA.Collector().Referenced()) == 0
	}, 5*time.Second)
	if got := aoA.Collector().Referenced(); len(got) != 0 {
		t.Fatalf("edge survived state deletion: %v", got)
	}
	// b is now garbage once its handle goes too (a stays pinned by ha).
	hb.Release()
	if _, err := e.WaitCollected(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDisableDGCNothingCollected(t *testing.T) {
	e := NewEnv(Config{
		TTB:        5 * time.Millisecond,
		TTA:        12 * time.Millisecond,
		DisableDGC: true,
	})
	defer e.Close()
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	h.Release()
	// A control env with the collector ON and identical timings provides
	// the clock: once it reaps the same garbage shape, the disabled env
	// has outlived many TTAs with its leak intact.
	ctrl := NewEnv(Config{TTB: 5 * time.Millisecond, TTA: 12 * time.Millisecond})
	defer ctrl.Close()
	ch := ctrl.NewNode().NewActive("control", relay{})
	ch.Release()
	if _, err := ctrl.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if e.LiveActivities() != 1 {
		t.Fatalf("live = %d with DGC disabled, want 1 (leak is expected)", e.LiveActivities())
	}
	// Explicit termination still works.
	h2 := n.NewActive("b", relay{})
	h2.Terminate()
	if e.LiveActivities() != 1 {
		t.Fatalf("live = %d after explicit terminate, want 1", e.LiveActivities())
	}
}

func TestSpawnFromBehavior(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	parent := n.NewActive("parent", BehaviorFunc(func(ctx *Context, method string, args wire.Value) (wire.Value, error) {
		switch method {
		case "spawn-and-keep":
			child := ctx.Spawn("child", relay{})
			ctx.Store("child", child)
			return child, nil
		case "spawn-and-drop":
			child := ctx.Spawn("orphan", relay{})
			return child, nil
		case "drop-child":
			ctx.Delete("child")
			return wire.Null(), nil
		}
		return wire.Null(), errors.New("unknown")
	}))
	defer parent.Release()

	// A stored child stays alive.
	childRef, err := parent.CallSync("spawn-and-keep", wire.Null(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := childRef.AsRef(); !ok {
		t.Fatalf("spawn returned %v", childRef)
	}
	dgcSettle(t, e, n)
	if e.LiveActivities() != 2 {
		t.Fatalf("live = %d, want parent+child", e.LiveActivities())
	}
	// Dropping the state edge makes the child garbage. (The future value
	// pin was already consumed by CallSync.)
	if _, err := parent.CallSync("drop-child", wire.Null(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitCollected(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// A dropped spawn is collected shortly after the service ends.
	fut, err := parent.Call("spawn-and-drop", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitCollected(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounts(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h1 := n.NewActive("a", relay{})
	h2 := n.NewActive("b", relay{})
	st := e.Stats()
	if st.Created != 2 || st.Live != 2 {
		t.Fatalf("stats = %+v, want created=2 live=2", st)
	}
	h1.Release()
	h2.Release()
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Live != 0 || st.Collected[core.ReasonAcyclic] != 2 {
		t.Fatalf("stats after collection = %+v", st)
	}
}

func TestFutureTimeoutAndDiscard(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("a", relay{})
	defer h.Release()
	fut, err := h.Call("sleep", wire.Int(200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(10 * time.Millisecond); !errors.Is(err, ErrFutureTimeout) {
		t.Fatalf("err = %v, want ErrFutureTimeout", err)
	}
	// Waiting again with a longer budget succeeds.
	if _, err := fut.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	fut.Discard() // safe after consumption
	// TryGet on a resolved future.
	if _, _, ok := fut.TryGet(); !ok {
		t.Fatal("TryGet on resolved future = !ok")
	}
}

func TestEnvCloseIsIdempotentAndFailsFutures(t *testing.T) {
	e := NewEnv(Config{TTB: 10 * time.Millisecond, TTA: 25 * time.Millisecond})
	n := e.NewNode()
	started := make(chan struct{})
	h := n.NewActive("a", BehaviorFunc(func(ctx *Context, _ string, _ wire.Value) (wire.Value, error) {
		close(started)
		// Park until shutdown begins: the serve goroutine must still be
		// mid-request when Close runs, and Close must be able to finish.
		<-ctx.ao.node.stop
		return wire.Null(), nil
	}))
	fut, err := h.Call("park", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	<-started // the request is being served when the env closes
	e.Close()
	e.Close()
	if _, err := fut.Wait(time.Second); err == nil {
		t.Fatal("future must fail on env close")
	}
}

// TestNewEnvRejectsUnsafeTiming: a TTA at or below the §3.1 bound lets
// a live referencer miss its window, so NewEnv refuses it (with the
// formula in the message) whenever the DGC is on, and says nothing with
// the DGC off.
func TestNewEnvRejectsUnsafeTiming(t *testing.T) {
	ms := time.Millisecond
	adaptive := func(min, max time.Duration) core.Adaptive {
		return core.Adaptive{Enabled: true, MinTTB: min, MaxTTB: max}
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want string // "" = accepted
	}{
		{"defaults", Config{}, ""},
		{"default TTA over MaxComm", Config{TTB: 10 * ms, Transport: simnet.New(simnet.Config{MaxComm: 40 * ms})}, ""},
		{"TTA = 2·TTB", Config{TTB: 10 * ms, TTA: 20 * ms}, "2*TTB+MaxComm"},
		{"TTA below 2·TTB", Config{TTB: 10 * ms, TTA: 15 * ms}, "2*TTB+MaxComm"},
		{"TTA = 2·TTB + MaxComm", Config{TTB: 10 * ms, TTA: 25 * ms, Transport: simnet.New(simnet.Config{MaxComm: 5 * ms})}, "2*TTB+MaxComm"},
		{"adaptive, TTA = 2·MaxTTB", Config{TTB: 10 * ms, TTA: 40 * ms, Adaptive: adaptive(5*ms, 20*ms)}, "2*MaxTTB+MaxComm"},
		{"adaptive, default TTA", Config{TTB: 10 * ms, Adaptive: adaptive(5*ms, 20*ms)}, ""},
		{"adaptive, bounds miss TTB", Config{TTB: 10 * ms, TTA: 100 * ms, Adaptive: adaptive(15*ms, 20*ms)}, "bracket the base TTB"},
		{"adaptive, safe", Config{TTB: 10 * ms, TTA: 45 * ms, Adaptive: adaptive(5*ms, 20*ms)}, ""},
		{"DGC off", Config{TTB: 10 * ms, TTA: ms, DisableDGC: true}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				NewEnv(c.cfg).Close()
			}()
			switch {
			case c.want == "" && got != "":
				t.Fatalf("NewEnv refused a safe config: %s", got)
			case c.want != "" && !strings.Contains(got, c.want):
				t.Fatalf("NewEnv panic = %q, want one naming %q", got, c.want)
			}
		})
	}
}

func mustRef(t *testing.T, v wire.Value) ids.ActivityID {
	t.Helper()
	id, ok := v.AsRef()
	if !ok {
		t.Fatalf("not a ref: %v", v)
	}
	return id
}
