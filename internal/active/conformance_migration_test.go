package active

// Cross-backend conformance for live activity migration (WIRE.md §7):
// the same three scenarios — migrate with calls in flight, migrate with
// an unresolved forwarded future in state, migrate a member of a
// distributed cycle and still collect it — run over both transport
// substrates, pinning down that migration depends only on the
// transport.Transport contract.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// migCounter accumulates integers in persistent state: the canonical
// migratable behavior (all its state is wire-expressible).
type migCounter struct{}

func (migCounter) Serve(ctx *Context, method string, args wire.Value) (wire.Value, error) {
	switch method {
	case "add":
		total := ctx.Load("total").AsInt() + args.AsInt()
		ctx.Store("total", wire.Int(total))
		return wire.Int(total), nil
	case "total":
		return ctx.Load("total"), nil
	case "moveto":
		// Self-initiated migration: the paper's mobile-agent shape.
		if err := ctx.MigrateTo(ids.NodeID(args.AsInt())); err != nil {
			return wire.Null(), err
		}
		return wire.Null(), nil
	}
	return wire.Null(), errors.New("migCounter: unknown method " + method)
}

// migWaiter calls a slow peer, stores the unresolved future first-class
// in its state, and resolves it on demand — across a migration.
type migWaiter struct{}

func (migWaiter) Serve(ctx *Context, method string, args wire.Value) (wire.Value, error) {
	switch method {
	case "begin":
		fut, err := ctx.Call(args, "slowping", wire.Null())
		if err != nil {
			return wire.Null(), err
		}
		fr, ok := fut.WireFutureRef()
		if !ok {
			return wire.Null(), errors.New("migWaiter: no wire identity")
		}
		ctx.Store("pending", wire.FutureVal(fr))
		return wire.Null(), nil
	case "finish":
		f, err := ctx.Future(ctx.Load("pending"))
		if err != nil {
			return wire.Null(), err
		}
		return f.Wait(10 * time.Second)
	}
	return wire.Null(), errors.New("migWaiter: unknown method " + method)
}

func init() {
	RegisterBehavior("test/counter", func() Behavior { return migCounter{} })
	RegisterBehavior("test/waiter", func() Behavior { return migWaiter{} })
	RegisterBehavior("test/relay", func() Behavior { return relay{} })
}

// TestConformanceMigrateWithCallsInFlight hammers an activity with calls
// from a third node while it migrates between the other two: every call
// must succeed (relayed by the forwarder or rebound by its redirect) and
// the migrated state must account for all of them.
func TestConformanceMigrateWithCallsInFlight(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()
		h, err := n1.SpawnKind("counter", "test/counter")
		if err != nil {
			t.Fatal(err)
		}
		caller, err := n3.HandleFor(h.Ref())
		if err != nil {
			t.Fatal(err)
		}
		defer caller.Release()

		const total = 120
		var wg sync.WaitGroup
		wg.Add(1)
		callErr := make(chan error, 1)
		var done atomic.Int64
		go func() {
			defer wg.Done()
			for i := 0; i < total; i++ {
				if _, err := caller.CallSync("add", wire.Int(1), 10*time.Second); err != nil {
					callErr <- err
					return
				}
				done.Add(1)
			}
		}()

		// Migrate mid-hammer — at least one call has completed, the rest
		// cross the move; the returned future resolves with the new
		// reference on n2.
		waitUntil(t, func() bool { return done.Load() >= 1 }, 10*time.Second)
		mfut, err := h.Migrate(n2.ID())
		if err != nil {
			t.Fatal(err)
		}
		newRef, err := mfut.Wait(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if id, ok := newRef.AsRef(); !ok || id.Node != n2.ID() {
			t.Fatalf("migrated ref = %v, want an activity on %v", newRef, n2.ID())
		}
		wg.Wait()
		select {
		case err := <-callErr:
			t.Fatalf("call during migration failed: %v", err)
		default:
		}

		got, err := caller.CallSync("total", wire.Null(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.AsInt() != total {
			t.Fatalf("total = %d, want %d (requests lost in migration)", got.AsInt(), total)
		}
		// The caller must have rebound: its next call routes straight to
		// n2 without a live forwarder in the path.
		if got2, err := caller.CallSync("add", wire.Int(0), 10*time.Second); err != nil || got2.AsInt() != total {
			t.Fatalf("post-rebind call = %v, %v", got2, err)
		}
		h.Release()
	})
}

// TestConformanceMigrateUnresolvedFuture migrates an activity while a
// first-class future stored in its state is still unresolved: the proxy
// re-subscribes from the destination and the value arrives there.
func TestConformanceMigrateUnresolvedFuture(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()
		// The producer parks on a gate the test closes only after the
		// migration completes, so the future is unresolved throughout the
		// move by construction.
		gate := make(chan struct{})
		slow := n3.NewActive("slow", BehaviorFunc(func(ctx *Context, method string, args wire.Value) (wire.Value, error) {
			<-gate
			return wire.Int(42), nil
		}))
		defer slow.Release()
		h, err := n1.SpawnKind("waiter", "test/waiter")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if _, err := h.CallSync("begin", slow.Ref(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		mfut, err := h.Migrate(n2.ID())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mfut.Wait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		close(gate)
		got, err := h.CallSync("finish", wire.Null(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.AsInt() != 42 {
			t.Fatalf("forwarded future across migration = %v, want 42", got)
		}
	})
}

// TestConformanceMigrateThenCycleCollect builds the 3-node cycle of the
// base conformance suite, migrates one member to a fourth node, releases
// every handle and requires the (now partially rebound) distributed cycle
// to be fully collected — forwarder included.
func TestConformanceMigrateThenCycleCollect(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2, n3, n4 := e.NewNode(), e.NewNode(), e.NewNode(), e.NewNode()
		ha, err := n1.SpawnKind("a", "test/relay")
		if err != nil {
			t.Fatal(err)
		}
		hb, err := n2.SpawnKind("b", "test/relay")
		if err != nil {
			t.Fatal(err)
		}
		hc, err := n3.SpawnKind("c", "test/relay")
		if err != nil {
			t.Fatal(err)
		}
		for _, link := range []struct{ h, to *Handle }{{ha, hb}, {hb, hc}, {hc, ha}} {
			if _, err := link.h.CallSync("set:peer", link.to.Ref(), 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		mfut, err := hb.Migrate(n4.ID())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mfut.Wait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		// The migrated member still serves through its ring edge: a calls
		// its (rebound) peer.
		if got, err := ha.CallSync("callpeer", wire.Null(), 10*time.Second); err != nil || got.AsInt() != 1 {
			t.Fatalf("callpeer through migrated member = %v, %v", got, err)
		}
		ha.Release()
		hb.Release()
		hc.Release()
		if _, err := e.WaitCollected(0, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceSelfMigration exercises Context.MigrateTo: the activity
// relocates itself after the current service and keeps serving.
func TestConformanceSelfMigration(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2 := e.NewNode(), e.NewNode()
		h, err := n1.SpawnKind("roamer", "test/counter")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if _, err := h.CallSync("add", wire.Int(7), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := h.CallSync("moveto", wire.Int(int64(n2.ID())), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		got, err := h.CallSync("total", wire.Null(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.AsInt() != 7 {
			t.Fatalf("state after self-migration = %v, want 7", got)
		}
		if n1.LiveActivities() > 1 {
			// The roamer itself must be gone from n1 (only the forwarder
			// remains, until it collapses).
			t.Fatalf("n1 live = %d after self-migration", n1.LiveActivities())
		}
	})
}
