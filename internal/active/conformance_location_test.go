package active

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/wire"
)

// stepClock is the real clock plus an offset the test moves; install
// makes an environment's runtime read it. With a TTB of an hour the
// drivers never beat by themselves; the test beats the nodes by hand and
// moves time on between beats. Sleep moves time on too, at once, so
// Node.Leave's one-beat grace does not take an hour. While a hook is
// set, the next Now() on the hooked path (the redirect path unless
// hookOn names another method, as "(*Type).Method") runs it, once. The
// heap reads the clock just before each critical section that may add
// or remove an edge, which makes the clock the gate that runs something
// at exactly that point. Other goroutines reading the clock meanwhile
// leave the hook alone: run there, the gate would not run where the test
// means it to, and its t.Fatalf would end that goroutine.
type stepClock struct {
	offset atomic.Int64
	hook   atomic.Pointer[func()]
	hookOn string
}

// install makes e's runtime read and sleep on c, and returns e. Call it
// before e's first node or Join.
func (c *stepClock) install(e *Env) *Env {
	e.now, e.sleep = c.Now, c.Sleep
	return e
}

func (c *stepClock) Now() time.Time {
	if hook := c.hook.Load(); hook != nil && c.onHookedPath() && c.hook.CompareAndSwap(hook, nil) {
		(*hook)()
	}
	return time.Now().Add(time.Duration(c.offset.Load()))
}

func (c *stepClock) Sleep(d time.Duration) { c.offset.Add(int64(d)) }

// onHookedPath reports whether the hooked method (Node.applyRedirect by
// default) is on the caller's stack.
func (c *stepClock) onHookedPath() bool {
	method := c.hookOn
	if method == "" {
		method = "(*Node).applyRedirect"
	}
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, "."+method) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestConformanceRedirectRacesRelease pins the invariant "no collector
// edge without a backing stub" (ROADMAP A(1)). A handle is released, so
// its stub is unrooted but not yet swept, and then the redirect for the
// activity it designates arrives. The redirect is held just before the
// heap's critical section that rebinds the stub, and a sweep runs there:
// it frees the stub and removes the edge with it, so the rebind finds
// nothing to move and adds no edge to the new identity. Had the rebind
// added an edge without a stub, the caller's root referencer, which the
// released handle was a stub of, would reference the migrated activity
// for ever — nothing would ever be collected. Rebinding a stub and adding
// its edge is one critical section, so every activity is collected.
func TestConformanceRedirectRacesRelease(t *testing.T) {
	for _, s := range substrates {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			clock := &stepClock{}
			cfg := s.cfg(t)
			cfg.TTB, cfg.TTA = time.Hour, 0
			e := clock.install(NewEnv(cfg))
			t.Cleanup(e.Close)
			caller, src, dst := e.NewNode(), e.NewNode(), e.NewNode()

			// An identity whose directory shard is not on the caller: the
			// announcement of its migration must not be what redirects the
			// caller, the test is.
			var h *Handle
			for h == nil {
				cand, err := src.SpawnKind("counter", "test/cluster-counter")
				if err != nil {
					t.Fatal(err)
				}
				if owner, ok := e.ring.Load().Owner(mustRef(t, cand.Ref())); ok && owner != caller.ID() {
					h = cand
				} else {
					cand.Release()
				}
			}
			oldID := mustRef(t, h.Ref())
			hc, err := caller.HandleFor(h.Ref())
			if err != nil {
				t.Fatal(err)
			}
			if v, errC := hc.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 1 {
				t.Fatalf("call = %v, %v", v, errC)
			}
			mfut, err := h.Migrate(dst.ID())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mfut.Wait(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			newID := src.resolveRebind(oldID)
			if newID.Node != dst.ID() || caller.resolveRebind(oldID) != oldID {
				t.Fatalf("after the migration: source knows %v, caller %v", newID, caller.resolveRebind(oldID))
			}

			// Release everything: the caller's stub for oldID is now
			// unrooted, and no beat has swept it.
			hc.Release()
			h.Release()

			swept := false
			gate := func() {
				if !caller.Heap().HasTag(caller.root.id, oldID) {
					t.Error("the caller holds no stub to rebind: the scenario did not set up the race")
				}
				caller.Heap().Collect()
				swept = true
			}
			clock.hook.Store(&gate)
			caller.applyRedirect(oldID, newID)
			if !swept {
				t.Fatal("the redirect never reached the heap: the sweep did not run")
			}

			// Beat by hand until the source's forwarder and the migrated
			// activity are gone and the caller's root references nothing.
			for beat := 0; ; beat++ {
				rootRefs := caller.root.Collector().Referenced()
				if e.LiveActivities() == 0 && len(rootRefs) == 0 {
					break
				}
				if beat == 50 {
					t.Fatalf("after %d beats: %d activities alive, caller root references %v — an edge outlived its stub",
						beat, e.LiveActivities(), rootRefs)
				}
				clock.offset.Add(int64(time.Hour))
				for _, n := range []*Node{caller, src, dst} {
					n.CollectNow()
				}
			}
		})
	}
}

// TestLocationEvictionCostsOnlyAFallback: flooding every node's location
// table with one more unrelated rebind than it holds evicts all knowledge
// of a migration. A stale handle still reaches the activity
// while the forwarder lives (the fallback), state intact; once the
// forwarder has collapsed and the tables have been flooded again, a
// fresh stale reference fails with ErrUnknownActivity — the sentinel an
// unknown target always had — and never reaches a wrong activity.
func TestLocationEvictionCostsOnlyAFallback(t *testing.T) {
	t.Parallel()
	e := NewEnv(Config{TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond})
	defer e.Close()
	n0, n1, n2 := e.NewNode(), e.NewNode(), e.NewNode()
	junk := uint32(0)
	flood := func() {
		for _, n := range []*Node{n0, n1, n2} {
			for i := 0; i <= location.DefaultCacheSize; i++ {
				junk++
				n.addRebind(ids.ActivityID{Node: 900, Seq: junk}, ids.ActivityID{Node: 901, Seq: junk})
			}
		}
	}

	h, err := n1.SpawnKind("counter", "test/cluster-counter")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	oldRef := h.Ref()
	oldID := mustRef(t, oldRef)
	stale, err := n0.HandleFor(oldRef)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Release()
	if v, errC := stale.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 1 {
		t.Fatalf("call = %v, %v", v, errC)
	}
	mfut, err := h.Migrate(n2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfut.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	newID := n1.resolveRebind(oldID)
	if newID.Node != n2.ID() {
		t.Fatalf("source resolves %v to %v after the migration", oldID, newID)
	}

	flood()
	if v, errC := stale.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 2 {
		t.Fatalf("stale call with every table flooded = %v, %v; want 2 through the forwarder", v, errC)
	}

	// Every holder rebinds, the forwarder goes TTA-alone and collapses.
	waitUntil(t, func() bool {
		_, alive := e.activity(oldID)
		return !alive
	}, 10*time.Second)
	flood()
	fresh, err := n0.HandleFor(oldRef)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	if v, errC := fresh.CallSync("add", wire.Int(1), 5*time.Second); !errors.Is(errC, ErrUnknownActivity) {
		t.Fatalf("stale call with forwarder and tables gone = %v, %v; want ErrUnknownActivity", v, errC)
	}
	// The activity itself never noticed.
	direct, err := n0.HandleFor(wire.Ref(newID))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Release()
	if v, errC := direct.CallSync("total", wire.Null(), 5*time.Second); errC != nil || v.AsInt() != 2 {
		t.Fatalf("total under the new identity = %v, %v; want 2", v, errC)
	}
}
