package active

// The node root referencer: every Handle on a node is a stub owned by
// the node's one root (§4.1), not an activity of its own.

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// TestConformanceHandlesShareRootEdge: two handles on one node to one
// target are one edge of the node's root, so the target sees exactly one
// referencer. The first Release leaves the other stub, and the edge,
// standing; the second drops both and the target is collected.
func TestConformanceHandlesShareRootEdge(t *testing.T) {
	for _, s := range substrates {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			// A TTA of five beats: the survival window below must not
			// depend on every beat landing within a TTA of 2.5 beats.
			cfg := s.cfg(t)
			cfg.TTB, cfg.TTA = 20*time.Millisecond, 100*time.Millisecond
			e := NewEnv(cfg)
			t.Cleanup(e.Close)
			sharedRootEdge(t, e)
		})
	}
}

// sharedRootEdge is TestConformanceHandlesShareRootEdge's scenario on e.
func sharedRootEdge(t *testing.T, e *Env) {
	n1, n2 := e.NewNode(), e.NewNode()
	h := n2.NewActive("target", relay{})
	id := mustRef(t, h.Ref())
	ha, err := n1.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n1.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	target, ok := e.activity(id)
	if !ok {
		t.Fatal("target not found")
	}
	onlyRoot := func() bool {
		refs := target.Collector().Referencers()
		return len(refs) == 1 && refs[0] == n1.root.id
	}
	// n2's root lets go of the target within a TTA of the release.
	waitUntil(t, onlyRoot, 10*time.Second)

	ha.Release()
	holdsFor(t, func() bool {
		_, alive := e.activity(id)
		return alive
	}, 3*e.cfg.TTA)
	waitUntil(t, onlyRoot, 10*time.Second)
	if v, err := hb.CallSync("ping", wire.Null(), 5*time.Second); err != nil || v.AsInt() != 1 {
		t.Fatalf("call through the remaining handle = %v, %v", v, err)
	}

	hb.Release()
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceCallToNodeRootFails: the node root is addressable (Seq 0
// of its node) but serves nothing. A call to it, local or remote, fails
// like a call to a terminated activity, and terminating it is a no-op.
func TestConformanceCallToNodeRootFails(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2 := e.NewNode(), e.NewNode()
		root := wire.Ref(ids.ActivityID{Node: n1.ID()})
		for _, n := range []*Node{n1, n2} {
			h, err := n.HandleFor(root)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := h.CallSync("ping", wire.Null(), 5*time.Second); !errors.Is(err, ErrUnknownActivity) {
				t.Fatalf("call from %v to the root of %v = %v, %v; want ErrUnknownActivity", n.ID(), n1.ID(), v, err)
			}
			if err := h.Send("ping", wire.Null()); err != nil {
				t.Fatalf("send from %v to the root of %v: %v", n.ID(), n1.ID(), err)
			}
			h.Terminate()
		}
		h := n1.NewActive("after", relay{})
		defer h.Release()
		if v, err := h.CallSync("ping", wire.Null(), 5*time.Second); err != nil || v.AsInt() != 1 {
			t.Fatalf("call through a handle after the root calls = %v, %v", v, err)
		}
	})
}

// spawner answers "spawn" with a reference to a fresh activity, once the
// test lets it go on.
type spawner struct {
	serving chan struct{}
	gate    chan struct{}
}

func (s spawner) Serve(ctx *Context, method string, args wire.Value) (wire.Value, error) {
	close(s.serving)
	<-s.gate
	return ctx.Spawn("fresh", relay{}), nil
}

// TestConformanceReleaseWithCallInFlight: a handle released while its
// call is in flight still gets the reply, here a reference to a fresh
// activity. The root owns the future, so the reply resolves normally and
// its reference stays pinned until Wait or Discard; after either,
// everything is collected.
func TestConformanceReleaseWithCallInFlight(t *testing.T) {
	for _, consume := range []string{"wait", "discard"} {
		consume := consume
		t.Run(consume, func(t *testing.T) {
			forEachSubstrate(t, func(t *testing.T, e *Env) {
				n1, n2 := e.NewNode(), e.NewNode()
				s := spawner{serving: make(chan struct{}), gate: make(chan struct{})}
				h := n2.NewActive("spawner", s)
				h1, err := n1.HandleFor(h.Ref())
				if err != nil {
					t.Fatal(err)
				}
				h.Release()
				fut, err := h1.Call("spawn", wire.Null())
				if err != nil {
					t.Fatal(err)
				}
				<-s.serving
				h1.Release()
				// A full reclamation cycle passes before the reply: the
				// handle's release has been swept and beaten out.
				dgcSettle(t, e, n1)
				if consume == "discard" {
					fut.Discard()
				}
				close(s.gate)
				if consume == "wait" {
					v, err := fut.Wait(5 * time.Second)
					if err != nil {
						t.Fatalf("reply after Release: %v", err)
					}
					if _, ok := v.AsRef(); !ok {
						t.Fatalf("reply = %v, want a ref", v)
					}
				}
				if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestConformanceTagDeathRaces: a new stub for T can appear while the
// tag of an older stub to T dies. The new stub must keep its holder's
// edge to T, or the holder stops beating T, which is then collected
// under a live reference. The heap pins a stub and adds its edge in one
// critical section, and frees a stub and removes its edge in one, so
// each case runs one side just before the other's critical section; the
// gate is the clock read the heap makes there:
//   - "handle inside death", "reply inside death": a HandleFor, or a
//     reply carrying T to a pending call of the node root, pins T just
//     before the sweep that kills the root's older stub to T.
//   - "death inside reply", "death inside request delivery", "death
//     inside Lookup": the sweep that kills the holder's older stub to T
//     runs just before the pin of the reply, of a request carrying T to
//     an activity R of n1, or of the stub Context.Lookup hands R.
//
// Every delivery takes the one path a payload sent from this node takes:
// sendFutureUpdate for the reply, a handle's call for the request.
func TestConformanceTagDeathRaces(t *testing.T) {
	for _, s := range substrates {
		for _, c := range []struct{ name, hookOn string }{
			{"handle inside death", "(*Heap).Collect"},
			{"reply inside death", "(*Heap).Collect"},
			{"death inside reply", "(*Node).bindValueToFuture"},
			{"death inside request delivery", "(*Node).admit"},
			{"death inside Lookup", "(*Context).Lookup"},
		} {
			s, c := s, c
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				clock := &stepClock{hookOn: c.hookOn}
				cfg := s.cfg(t)
				cfg.TTB, cfg.TTA = time.Hour, 0
				e := clock.install(NewEnv(cfg))
				t.Cleanup(e.Close)
				n1, n2 := e.NewNode(), e.NewNode()
				h := n2.NewActive("target", relay{})
				old, err := n1.HandleFor(h.Ref())
				if err != nil {
					t.Fatal(err)
				}
				h.Release()
				old.Release()

				// A pending call of the root, as Handle.Call makes, whose
				// reply carries T and a future unknown to n1 (adopting it
				// subscribes at n2, its home).
				fut := n1.futures.create(n1, n1.root.id)
				defer fut.Discard()
				reply := wire.List(h.Ref(), wire.FutureVal(wire.FutureRef{
					ID:    FutureID{Node: n2.ID(), Seq: 1 << 30},
					Owner: ids.ActivityID{Node: n2.ID(), Seq: 1 << 30},
				}))
				deliver := func() {
					n1.sendFutureUpdate(fut.ID(), encodeFutureUpdate(futureUpdate{Future: fut.ID(), Value: reply}))
				}
				sweep := func() { n1.Heap().Collect() }
				holder := n1.root // the activity that must keep its edge to T
				gate, trigger := deliver, sweep
				if c.name == "death inside request delivery" || c.name == "death inside Lookup" {
					// R serves the request until the test ends, so its
					// args pin, or the stub Lookup pinned, holds T
					// throughout. R's older stub to T is unrooted, not yet
					// swept.
					release, looked := make(chan struct{}), make(chan struct{})
					t.Cleanup(func() { close(release) })
					hr := n1.NewActive("holder", BehaviorFunc(func(ctx *Context, method string, _ wire.Value) (wire.Value, error) {
						if method == "lookup" {
							if _, err := ctx.Lookup("target"); err != nil {
								t.Error(err)
							}
							close(looked)
						}
						<-release
						return wire.Null(), nil
					}))
					t.Cleanup(hr.Release)
					holder, _ = n1.activity(mustRef(t, hr.Ref()))
					_, stub := n1.heap.NewStubRooted(holder.id, h.target)
					n1.heap.RemoveRoot(stub)
					gate, trigger = sweep, func() {
						if err := hr.Send("hold", reply); err != nil {
							t.Error(err)
						}
					}
					if c.name == "death inside Lookup" {
						if err := e.RegisterName("target", h.Ref()); err != nil {
							t.Fatal(err)
						}
						trigger = func() {
							if err := hr.Send("lookup", wire.Null()); err != nil {
								t.Error(err)
							}
							<-looked
							// Registered activities are roots: unregister,
							// so only R's stub keeps T alive.
							e.Unregister("target")
						}
					}
				}
				switch c.name {
				case "handle inside death":
					gate = func() {
						fresh, err := n1.HandleFor(h.Ref())
						if err != nil {
							t.Error(err)
							return
						}
						t.Cleanup(fresh.Release)
					}
				case "death inside reply":
					gate, trigger = sweep, deliver
				}
				var ran atomic.Bool
				hooked := func() { ran.Store(true); gate() }
				clock.hook.Store(&hooked)
				trigger()
				if !ran.Load() {
					t.Fatal("the gate never ran: the scenario did not set up the race")
				}

				// Beat by hand across more than two TTAs: T hears only
				// from the holder, and only while the edge stands.
				for beat := 0; beat < 6; beat++ {
					clock.offset.Add(int64(time.Hour))
					for _, n := range []*Node{n1, n2} {
						n.CollectNow()
					}
				}
				if got := n2.LiveActivities(); got != 1 {
					t.Fatalf("n2 live activities = %d, want 1: T was collected under a live reference", got)
				}
				if got := holder.collector.Referenced(); !slices.Contains(got, h.target) {
					t.Fatalf("%s references %v, want %v among them", holder.name, got, h.target)
				}
			})
		}
	}
}
