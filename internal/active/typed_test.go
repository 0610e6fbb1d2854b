package active

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// calcReq/calcResp are the typed request/response pair the dispatch tests
// push through the full wire round-trip.
type calcReq struct {
	A, B  int64
	Op    string  `wire:"op"`
	Scale float64 `wire:",omitempty"`
}

type calcResp struct {
	Result int64  `wire:"result"`
	Op     string `wire:"op"`
}

func calcService() *Service {
	return NewService(
		Method("calc", func(ctx *Context, req calcReq) (calcResp, error) {
			switch req.Op {
			case "add":
				return calcResp{Result: req.A + req.B, Op: req.Op}, nil
			case "mul":
				return calcResp{Result: req.A * req.B, Op: req.Op}, nil
			default:
				return calcResp{}, fmt.Errorf("bad op %q", req.Op)
			}
		}),
		Method("noop", func(ctx *Context, _ struct{}) (struct{}, error) {
			return struct{}{}, nil
		}),
	)
}

// TestTypedCallResolvesStruct is the acceptance scenario: a TypedFuture
// obtained via Stub.Call resolves with an unmarshaled struct.
func TestTypedCallResolvesStruct(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("calc", calcService())
	defer h.Release()

	stub := NewStub[calcReq, calcResp](h, "calc")
	fut, err := stub.Call(calcReq{A: 6, B: 7, Op: "mul"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fut.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp != (calcResp{Result: 42, Op: "mul"}) {
		t.Fatalf("resp = %+v", resp)
	}

	// CallSync, across nodes.
	n2 := e.NewNode()
	h2, err := n2.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	resp, err = NewStub[calcReq, calcResp](h2, "calc").CallSync(calcReq{A: 40, B: 2, Op: "add"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result != 42 {
		t.Fatalf("cross-node resp = %+v", resp)
	}
}

func TestServiceUnknownMethod(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("calc", calcService())
	defer h.Release()

	_, err := h.CallSync("nope", wire.Null(), 5*time.Second)
	if err == nil || !errors.Is(err, ErrRemoteFailure) {
		t.Fatalf("err = %v, want remote failure", err)
	}
	// The declared interface is enumerable and named in the error.
	if !strings.Contains(err.Error(), "unknown service method") || !strings.Contains(err.Error(), "calc") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestTypedCallBadArgs(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("calc", calcService())
	defer h.Release()

	// Dynamic call with a wire shape the typed method cannot unmarshal:
	// the error must come back through the future, not wedge the callee.
	_, err := h.CallSync("calc", wire.String("not a dict"), 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "bad arguments") {
		t.Fatalf("err = %v, want bad-arguments failure", err)
	}
}

func TestCallOptionTimeout(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("sleeper", relay{})
	defer h.Release()

	stub := NewStub[int64, wire.Value](h, "sleep")
	fut, err := stub.Call(200, WithTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Wait(0) picks up the per-call timeout option.
	if _, err := fut.Wait(0); !errors.Is(err, ErrFutureTimeout) {
		t.Fatalf("err = %v, want ErrFutureTimeout", err)
	}
}

func TestCallOptionNoReply(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	var served atomic.Int64
	h := n.NewActive("svc", NewService(
		Method("bump", func(ctx *Context, delta int64) (int64, error) {
			served.Add(delta)
			return served.Load(), nil
		}),
	))
	defer h.Release()

	stub := NewStub[int64, int64](h, "bump")
	fut, err := stub.Call(5, WithNoReply())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fut.Done():
	default:
		t.Fatal("no-reply future must be pre-resolved")
	}
	if got, err := fut.Wait(time.Second); err != nil || got != 0 {
		t.Fatalf("no-reply Wait = %d, %v (want zero Resp)", got, err)
	}
	// The send did happen.
	waitUntil(t, func() bool { return served.Load() == 5 }, 5*time.Second)
}

// TestHandleLifecycle is the hardening satellite: double Release is an
// idempotent no-op and post-release calls fail with the sentinel.
func TestHandleLifecycle(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	h := n.NewActive("calc", calcService())

	if _, err := h.Call("noop", wire.Null()); err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // must not panic or double-remove the root
	h.Terminate()

	if _, err := h.Call("noop", wire.Null()); !errors.Is(err, ErrHandleReleased) {
		t.Fatalf("Call err = %v, want ErrHandleReleased", err)
	}
	if _, err := h.CallSync("noop", wire.Null(), time.Second); !errors.Is(err, ErrHandleReleased) {
		t.Fatalf("CallSync err = %v, want ErrHandleReleased", err)
	}
	if err := h.Send("noop", wire.Null()); !errors.Is(err, ErrHandleReleased) {
		t.Fatalf("Send err = %v, want ErrHandleReleased", err)
	}
	// Typed surfaces propagate the sentinel too.
	if _, err := NewStub[calcReq, calcResp](h, "calc").Call(calcReq{Op: "add"}); !errors.Is(err, ErrHandleReleased) {
		t.Fatalf("Stub.Call err = %v, want ErrHandleReleased", err)
	}

	// The released handle no longer pins the activity: the DGC reclaims it.
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestGroupBroadcastAndCollect is the acceptance scenario: a 16-member
// Group.Broadcast resolves all futures, and after Release the DGC
// reclaims every member.
func TestGroupBroadcastAndCollect(t *testing.T) {
	e := testEnv(t)
	const members = 16
	nodes := []*Node{e.NewNode(), e.NewNode(), e.NewNode(), e.NewNode()}

	svc := NewService(
		Method("rank", func(ctx *Context, _ struct{}) (string, error) {
			return ctx.ID().String(), nil
		}),
	)
	handles := make([]*Handle, members)
	for i := range handles {
		handles[i] = nodes[i%len(nodes)].NewActive(fmt.Sprintf("m-%d", i), svc)
	}
	g := NewGroup[struct{}, string]("rank", handles...)
	if g.Size() != members {
		t.Fatalf("Size = %d", g.Size())
	}

	fg, err := g.Broadcast(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	replies, err := fg.WaitAll(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != members {
		t.Fatalf("got %d replies", len(replies))
	}
	distinct := make(map[string]bool, members)
	for i, r := range replies {
		if r == "" {
			t.Fatalf("member %d: empty reply", i)
		}
		distinct[r] = true
	}
	if len(distinct) != members {
		t.Fatalf("replies not distinct per member: %d/%d", len(distinct), members)
	}

	g.Release()
	g.Release() // idempotent like the handles underneath
	took, err := e.WaitCollected(0, 10*time.Second)
	if err != nil {
		t.Fatalf("group members not reclaimed: %v", err)
	}
	t.Logf("16-member group reclaimed in %v", took)
}

func TestGroupScatter(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	svc := NewService(
		Method("square", func(ctx *Context, x int64) (int64, error) { return x * x, nil }),
	)
	handles := make([]*Handle, 4)
	for i := range handles {
		handles[i] = n.NewActive(fmt.Sprintf("sq-%d", i), svc)
	}
	g := NewGroup[int64, int64]("square", handles...)
	defer g.Release()

	if _, err := g.Scatter([]int64{1, 2}); !errors.Is(err, ErrGroupArity) {
		t.Fatalf("arity err = %v, want ErrGroupArity", err)
	}
	fg, err := g.Scatter([]int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fg.WaitAll(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 4, 9, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scatter replies = %v, want %v", got, want)
		}
	}
}

func TestGroupWaitAny(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	svc := NewService(
		Method("wait", func(ctx *Context, ms int64) (int64, error) {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return ms, nil
		}),
	)
	handles := make([]*Handle, 3)
	for i := range handles {
		handles[i] = n.NewActive(fmt.Sprintf("w-%d", i), svc)
	}
	g := NewGroup[int64, int64]("wait", handles...)
	defer g.Release()

	// Member 1 is the fast one.
	fg, err := g.Scatter([]int64{400, 5, 400})
	if err != nil {
		t.Fatal(err)
	}
	idx, got, err := fg.WaitAny(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || got != 5 {
		t.Fatalf("WaitAny = (%d, %d), want (1, 5)", idx, got)
	}
	fg.Discard()

	if _, _, err := (&FutureGroup[int64]{}).WaitAny(time.Second); !errors.Is(err, ErrEmptyGroup) {
		t.Fatalf("empty WaitAny err = %v, want ErrEmptyGroup", err)
	}
	if _, err := (&Group[int64, int64]{method: "x"}).Broadcast(0); !errors.Is(err, ErrEmptyGroup) {
		t.Fatalf("empty Broadcast err = %v, want ErrEmptyGroup", err)
	}
}

// TestDiscardBeforeResolve pins the early-Discard contract: abandoning a
// future before its result arrives must still drop the value's heap pin
// on resolution, so references inside an unread reply cannot keep their
// targets alive for the owner's lifetime.
func TestDiscardBeforeResolve(t *testing.T) {
	e := testEnv(t)
	n := e.NewNode()
	svc := NewService(
		Method("spawnChild", func(ctx *Context, _ struct{}) (wire.Value, error) {
			// Sleep so the caller can discard before this resolves; the
			// returned ref is the only thing that would keep the child
			// alive at the caller.
			time.Sleep(50 * time.Millisecond)
			return ctx.Spawn("child", NewService()), nil
		}),
	)
	h := n.NewActive("parent", svc)
	defer h.Release()

	fut, err := h.Call("spawnChild", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	fut.Discard() // before the 50ms service completes
	<-fut.Done()

	// The handle stays live (pinning only the parent); the child must be
	// reclaimed because the discarded reply's pin was dropped on arrival.
	if _, err := e.WaitCollected(1, 10*time.Second); err != nil {
		t.Fatalf("discarded reply kept the child pinned: %v", err)
	}
}

// TestGroupFanOutReferenceGraph exercises the new DGC scenario the group
// primitive opens: members hold references to each other (a fan-out that
// became a clique), so after Release the group is *cyclic* garbage only a
// complete DGC collects.
func TestGroupFanOutReferenceGraph(t *testing.T) {
	e := testEnv(t)
	nodes := []*Node{e.NewNode(), e.NewNode()}
	const members = 8

	type meshReq struct {
		Peers []wire.Value `wire:"peers"`
	}
	svc := NewService(
		Method("mesh", func(ctx *Context, req meshReq) (int64, error) {
			ctx.Store("peers", wire.List(req.Peers...))
			return int64(len(req.Peers)), nil
		}),
	)
	handles := make([]*Handle, members)
	for i := range handles {
		handles[i] = nodes[i%len(nodes)].NewActive(fmt.Sprintf("mesh-%d", i), svc)
	}
	g := NewGroup[meshReq, int64]("mesh", handles...)

	peers := make([]wire.Value, members)
	for i, h := range handles {
		peers[i] = h.Ref()
	}
	fg, err := g.Broadcast(meshReq{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := fg.WaitAll(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != members {
			t.Fatalf("member %d stored %d peers", i, c)
		}
	}

	g.Release()
	if _, err := e.WaitCollected(0, 15*time.Second); err != nil {
		t.Fatalf("clique not reclaimed: %v", err)
	}
}
