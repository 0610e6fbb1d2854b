package active

// Cross-backend conformance for durable activities (WIRE.md §11,
// DESIGN.md §9): explicit and cadence-driven checkpoints, crash recovery
// under the old identities with at-most-once delivery (checkpointed
// in-flight requests fail with ErrRecovered, never replay), cluster
// failover onto the lowest-ID survivor with gossiped rebinds, and a
// crash-at-every-offset torture run proving Env.Recover never panics and
// never resurrects state that was not durably checkpointed. The simnet
// scenarios model kill-and-restart inside one environment (KillNode /
// ReviveNode are the chaos hooks); the TCP scenarios run one environment
// per process against a store that survives the process.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// parkCounterBehavior is migCounter plus a "park" method that blocks on
// gate (signalling started non-blockingly first) — the shape recovery
// tests need: persistent state to restore plus a request that is
// provably in flight when the machine dies.
func parkCounterBehavior(started chan<- struct{}, gate <-chan struct{}) Behavior {
	return BehaviorFunc(func(ctx *Context, method string, args wire.Value) (wire.Value, error) {
		switch method {
		case "add":
			total := ctx.Load("total").AsInt() + args.AsInt()
			ctx.Store("total", wire.Int(total))
			return wire.Int(total), nil
		case "total":
			return ctx.Load("total"), nil
		case "park":
			select {
			case started <- struct{}{}:
			default:
			}
			<-gate
			return wire.Null(), nil
		}
		return wire.Null(), errors.New("parkCounter: unknown method " + method)
	})
}

// callRetry is callUntilOK with a short per-call timeout: right after a
// process restart a send can race a stale pooled connection that has not
// noticed the peer died yet — the write succeeds into a dying socket and
// the message is simply gone, which is exactly the loss the runtime asks
// callers to retry through. A short per-call bound keeps one lost
// message from eating the whole retry budget.
func callRetry(t *testing.T, h *Handle, method string, args wire.Value, timeout time.Duration) wire.Value {
	t.Helper()
	var v wire.Value
	waitUntil(t, func() bool {
		got, err := h.CallSync(method, args, time.Second)
		if err != nil {
			return false
		}
		v = got
		return true
	}, timeout)
	return v
}

// TestConformanceRecoverSim is kill-and-restart inside one simnet
// environment: a durable counter on n2 is checkpointed with one request
// provably still queued, the machine dies, and Recover brings the
// counter back under its old identity — state intact, name re-bound,
// the checkpointed in-flight request failed with ErrRecovered rather
// than replayed, and the caller's old reference serving again. A
// graceful destroy afterwards must retire the checkpoint from the store.
func TestConformanceRecoverSim(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	const kind = "test/recover-sim"
	RegisterBehavior(kind, func() Behavior { return parkCounterBehavior(started, gate) })

	st := store.NewMemStore()
	e := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond,
		Store: st,
	})
	defer e.Close()
	n1, n2 := e.NewNode(), e.NewNode()

	h, err := n2.SpawnKind("ctr", kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterName("recover-sim-ctr", h.Ref()); err != nil {
		t.Fatal(err)
	}
	caller, err := n1.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := caller.CallSync("add", wire.Int(5), 5*time.Second); err != nil || v.AsInt() != 5 {
		t.Fatalf("add = %v, %v", v, err)
	}

	// The park dance. All three requests go through the same handle, so
	// per-sender FIFO pins the queue order: park1 is being served,
	// the checkpoint waits behind it, park2 behind the checkpoint — the
	// snapshot must capture exactly [park2] as the pending queue.
	parkFut1, err := caller.Call("park", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ckptFut, err := caller.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	parkFut2, err := caller.Call("park", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // park1 returns, the checkpoint runs next
	if _, err := parkFut1.Wait(5 * time.Second); err != nil {
		t.Fatalf("park1: %v", err)
	}
	ref, err := ckptFut.Wait(5 * time.Second)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if mustRef(t, ref) != mustRef(t, h.Ref()) {
		t.Fatalf("checkpoint resolved %v, want %v", ref, h.Ref())
	}
	<-started // park2 is now parked: in flight, checkpointed as queued

	// The machine dies mid-service and restarts.
	net := e.Network().(*simnet.Network)
	net.KillNode(n2.ID())
	close(gate)
	n2.Crash()
	net.ReviveNode(n2.ID())

	if st.Len() != 1 {
		t.Fatalf("store holds %d checkpoints, want 1", st.Len())
	}
	restored, err := e.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}

	// At-most-once: the checkpointed in-flight request fails, visibly.
	if _, err := parkFut2.Wait(5 * time.Second); !errors.Is(err, ErrRecovered) {
		t.Fatalf("in-flight future error = %v, want ErrRecovered", err)
	}

	// Old identity, old name, old state.
	if got, err := e.Lookup("recover-sim-ctr"); err != nil || mustRef(t, got) != mustRef(t, h.Ref()) {
		t.Fatalf("Lookup after recovery = %v, %v (want %v)", got, err, h.Ref())
	}
	if v := callUntilOK(t, caller, "total", wire.Null(), 5*time.Second); v.AsInt() != 5 {
		t.Fatalf("total after recovery = %v, want 5", v)
	}
	if v, err := caller.CallSync("add", wire.Int(3), 5*time.Second); err != nil || v.AsInt() != 8 {
		t.Fatalf("add after recovery = %v, %v", v, err)
	}

	// Recover is idempotent: everything durable is already live.
	if again, err := e.Recover(); err != nil || again != 0 {
		t.Fatalf("second Recover = %d, %v, want 0, nil", again, err)
	}

	// A graceful end of life retires the checkpoint: unregister, drop
	// the last reference, and the destroy deletes the store entry.
	e.Unregister("recover-sim-ctr")
	caller.Release()
	h.Release()
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return st.Len() == 0 }, 5*time.Second)
}

// TestConformanceRecoverTCP is the multi-process restart: a durable
// counter in process B checkpoints against a store that outlives the
// process, B is hard-killed and a fresh process opens the same store,
// recovers the counter under its old node and activity identity, and
// process A's old reference works again once the address books point at
// the restarted listener.
func TestConformanceRecoverTCP(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	const kind = "test/recover-tcp"
	RegisterBehavior(kind, func() Behavior { return parkCounterBehavior(started, gate) })

	st := store.NewMemStore()
	newTCPEnv := func(first ids.NodeID) *Env {
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return NewEnv(Config{
			TTB: 10 * time.Millisecond, TTA: 40 * time.Millisecond,
			Transport: tr, FirstNode: first, Store: st,
		})
	}

	envA := newTCPEnv(1)
	defer envA.Close()
	nA := envA.NewNode()
	trA := envA.Network().(*tcpnet.Network)

	envB := newTCPEnv(100)
	nB := envB.NewNode()
	trB := envB.Network().(*tcpnet.Network)
	trA.AddPeer(nB.ID(), trB.Addr())
	trB.AddPeer(nA.ID(), trA.Addr())

	h, err := nB.SpawnKind("ctr", kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := envB.RegisterName("recover-tcp-ctr", h.Ref()); err != nil {
		t.Fatal(err)
	}
	caller, err := nA.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if v := callUntilOK(t, caller, "add", wire.Int(5), 10*time.Second); v.AsInt() != 5 {
		t.Fatalf("add = %v, want 5", v)
	}

	// Same park dance as the sim scenario, now across real TCP.
	parkFut1, err := caller.Call("park", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ckptFut, err := caller.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	parkFut2, err := caller.Call("park", wire.Null())
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	if _, err := parkFut1.Wait(10 * time.Second); err != nil {
		t.Fatalf("park1: %v", err)
	}
	if _, err := ckptFut.Wait(10 * time.Second); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	<-started

	// Hard-kill process B: listener gone, runtime reaped mid-park.
	trB.Close()
	close(gate)
	envB.Close()

	// A fresh process opens the same store. Wire the address books in
	// both directions before recovering, so the ErrRecovered fan-out for
	// the checkpointed in-flight request can reach process A.
	envB2 := newTCPEnv(100)
	defer envB2.Close()
	trB2 := envB2.Network().(*tcpnet.Network)
	trA.AddPeer(nB.ID(), trB2.Addr())
	trB2.AddPeer(nA.ID(), trA.Addr())

	restored, err := envB2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}
	if _, err := parkFut2.Wait(10 * time.Second); !errors.Is(err, ErrRecovered) {
		t.Fatalf("in-flight future error = %v, want ErrRecovered", err)
	}
	if got, err := envB2.Lookup("recover-tcp-ctr"); err != nil || mustRef(t, got) != mustRef(t, h.Ref()) {
		t.Fatalf("Lookup after recovery = %v, %v (want %v)", got, err, h.Ref())
	}
	if v := callRetry(t, caller, "total", wire.Null(), 10*time.Second); v.AsInt() != 5 {
		t.Fatalf("total after recovery = %v, want 5", v)
	}
	if v := callRetry(t, caller, "add", wire.Int(3), 10*time.Second); v.AsInt() < 8 {
		t.Fatalf("add after recovery = %v, want >= 8", v)
	}
	caller.Release()
}

// TestRecoverCheckpointLogFromEarlierBuild pins the durable format across
// an upgrade (WIRE.md §11). testdata/ckpt-parent/ckpt-2.log was written by
// an earlier build of this runtime, the last one before the envelope
// decoders moved onto wire.Reader: a durable counter 2.1 registered as
// "upgrade-ctr" with total 5, checkpointed while one "park" call from
// node 1 waited in its queue. Recovering that log must re-register the
// name, restore the state, and fail the queued call with ErrRecovered.
func TestRecoverCheckpointLogFromEarlierBuild(t *testing.T) {
	t.Parallel()
	const kind = "test/upgrade-counter"
	RegisterBehavior(kind, func() Behavior { return parkCounterBehavior(make(chan struct{}, 1), nil) })
	log, err := os.ReadFile(filepath.Join("testdata", "ckpt-parent", "ckpt-2.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // the store appends to its logs: never open testdata itself
	if err := os.WriteFile(filepath.Join(dir, "ckpt-2.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	e := NewEnv(Config{TTB: time.Second, DisableDGC: true, Store: fs})
	defer e.Close()
	caller := e.NewNode()

	// The queued call's future lives on node 1, whose process died with
	// the counter's. Stand in for its entry so the failure has a waiter.
	snap, err := fs.Load()
	if err != nil || len(snap) != 1 {
		t.Fatalf("store holds %d checkpoints (%v), want 1", len(snap), err)
	}
	var id ids.ActivityID
	var c checkpoint
	for id = range snap {
		if c, err = decodeCheckpoint(snap[id]); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.Env.Queue) != 1 || c.Env.Queue[0].Future.Node != caller.ID() {
		t.Fatalf("checkpointed queue = %+v, want one call whose future is homed on %v", c.Env.Queue, caller.ID())
	}
	q := c.Env.Queue[0]
	queued := newFuture(caller, q.Future, q.Sender)
	caller.futures.reinstate(queued)

	if restored, err := e.Recover(); err != nil || restored != 1 {
		t.Fatalf("Recover = %d, %v, want 1, nil", restored, err)
	}
	ref, err := e.Lookup("upgrade-ctr")
	if err != nil || mustRef(t, ref) != id {
		t.Fatalf("Lookup after recovery = %v, %v (want %v)", ref, err, id)
	}
	h, err := caller.HandleFor(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if v, err := h.CallSync("total", wire.Null(), 5*time.Second); err != nil || v.AsInt() != 5 {
		t.Fatalf("total after recovery = %v, %v, want 5", v, err)
	}
	if _, err := queued.Wait(5 * time.Second); !errors.Is(err, ErrRecovered) {
		t.Fatalf("queued call error = %v, want ErrRecovered", err)
	}
}

// TestConformanceFailoverSim is cluster failover in one simnet
// environment: a checkpointed counter lives on n3, the machine dies,
// the failure detector confirms the death, and the lowest-ID survivor
// adopts the checkpoint — restored under a fresh identity, re-bound
// under its registry name, the old→new rebind applied so holders of the
// dead identity keep calling, and the store rewritten so nothing points
// at the dead node range any more.
func TestConformanceFailoverSim(t *testing.T) {
	t.Parallel()
	st := store.NewMemStore()
	e := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond,
		Store:   st,
		Cluster: ClusterConfig{Enabled: true, Failover: true},
	})
	defer e.Close()
	n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()

	h, err := n3.SpawnKind("fo", "test/cluster-counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterName("failover-sim-ctr", h.Ref()); err != nil {
		t.Fatal(err)
	}
	caller, err := n2.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := caller.CallSync("add", wire.Int(5), 5*time.Second); err != nil || v.AsInt() != 5 {
		t.Fatalf("add = %v, %v", v, err)
	}
	ckptFut, err := caller.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckptFut.Wait(5 * time.Second); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// The machine hosting the counter dies.
	e.Network().(*simnet.Network).KillNode(n3.ID())
	n3.Crash()
	waitState(t, e, n3.ID(), cluster.StateDead, 5*time.Second)

	// The survivor with the lowest identifier adopts: the name re-binds
	// to a fresh identity hosted on n1.
	var adopted ids.ActivityID
	waitUntil(t, func() bool {
		got, err := e.Lookup("failover-sim-ctr")
		if err != nil {
			return false
		}
		adopted = mustRef(t, got)
		return adopted.Node == n1.ID()
	}, 5*time.Second)
	if adopted == mustRef(t, h.Ref()) {
		t.Fatalf("failover reused the dead identity %v", adopted)
	}

	// Holders of the dead identity keep working through the rebind.
	if v := callUntilOK(t, caller, "total", wire.Null(), 5*time.Second); v.AsInt() != 5 {
		t.Fatalf("total after failover = %v, want 5", v)
	}
	if v, err := caller.CallSync("add", wire.Int(2), 5*time.Second); err != nil || v.AsInt() != 7 {
		t.Fatalf("add after failover = %v, %v", v, err)
	}

	// The store was rewritten under the adopted identity: nothing left
	// in the dead node's range, one checkpoint on the survivor.
	waitUntil(t, func() bool {
		snap, err := st.Load()
		if err != nil {
			return false
		}
		if len(snap) != 1 {
			return false
		}
		for id := range snap {
			if id.Node != n1.ID() {
				return false
			}
		}
		return true
	}, 5*time.Second)
	caller.Release()
}

// TestConformanceFailoverTCP is failover across processes: seed and
// joiner share a checkpoint store, the joiner hosts a registered durable
// counter, the whole joiner process is hard-killed, and the seed —
// detecting the death through its own heartbeats — adopts the
// checkpoint, binds the name into its own registry, and serves the
// counter with its state intact to a caller still holding the dead
// identity.
func TestConformanceFailoverTCP(t *testing.T) {
	t.Parallel()
	st := store.NewMemStore()
	newTCPEnv := func(seed string) *Env {
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return NewEnv(Config{
			TTB: 10 * time.Millisecond, TTA: 40 * time.Millisecond,
			Transport: tr, Store: st,
			Cluster: ClusterConfig{Enabled: true, Seed: seed, Failover: true},
		})
	}

	seedEnv := newTCPEnv("")
	defer seedEnv.Close()
	seedAddr := seedEnv.Network().(*tcpnet.Network).Addr()
	nA := seedEnv.NewNode()

	joinEnv := newTCPEnv(seedAddr)
	defer joinEnv.Close()
	if err := joinEnv.Join(); err != nil {
		t.Fatalf("join via seed: %v", err)
	}
	nB := joinEnv.NewNode()

	h, err := nB.SpawnKind("fo", "test/cluster-counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := joinEnv.RegisterName("failover-tcp-ctr", h.Ref()); err != nil {
		t.Fatal(err)
	}
	caller, err := nA.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if v := callUntilOK(t, caller, "add", wire.Int(5), 10*time.Second); v.AsInt() != 5 {
		t.Fatalf("add = %v, want 5", v)
	}
	ckptFut, err := caller.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckptFut.Wait(10 * time.Second); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Hard-kill the joiner process.
	joinEnv.Network().Close()
	waitState(t, seedEnv, nB.ID(), cluster.StateDead, 10*time.Second)

	// The seed adopts: the name — learned from the checkpoint, it was
	// never registered in this process — appears in the seed's registry
	// bound to a locally hosted identity.
	var adopted ids.ActivityID
	waitUntil(t, func() bool {
		got, err := seedEnv.Lookup("failover-tcp-ctr")
		if err != nil {
			return false
		}
		adopted = mustRef(t, got)
		return adopted.Node == nA.ID()
	}, 10*time.Second)

	// The caller still holds the dead identity; the rebind routes it.
	if v := callRetry(t, caller, "total", wire.Null(), 10*time.Second); v.AsInt() != 5 {
		t.Fatalf("total after failover = %v, want 5", v)
	}
	if v := callRetry(t, caller, "add", wire.Int(2), 10*time.Second); v.AsInt() < 7 {
		t.Fatalf("add after failover = %v, want >= 7", v)
	}
	caller.Release()
}

// TestCheckpointCadenceSim drives the checkpoint beat: with
// CheckpointEvery set and no explicit Checkpoint call anywhere, the
// driver must persist a dirty durable activity on its own, and a
// kill-and-restart must find that snapshot good enough to recover from.
func TestCheckpointCadenceSim(t *testing.T) {
	t.Parallel()
	st := store.NewMemStore()
	e := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond,
		Store: st, CheckpointEvery: 15 * time.Millisecond,
	})
	defer e.Close()
	n1, n2 := e.NewNode(), e.NewNode()

	h, err := n2.SpawnKind("ctr", "test/cluster-counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterName("cadence-ctr", h.Ref()); err != nil {
		t.Fatal(err)
	}
	caller, err := n1.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := caller.CallSync("add", wire.Int(5), 5*time.Second); err != nil || v.AsInt() != 5 {
		t.Fatalf("add = %v, %v", v, err)
	}

	// The beat checkpoints without being asked; wait until a snapshot
	// holding total=5 has landed (an earlier, pre-add snapshot of the
	// fresh activity may land first — the cadence keeps going while the
	// activity keeps changing).
	waitUntil(t, func() bool {
		snap, err := st.Load()
		if err != nil || len(snap) != 1 {
			return false
		}
		for _, payload := range snap {
			c, err := decodeCheckpoint(payload)
			if err != nil {
				return false
			}
			for _, kv := range c.Env.State {
				if kv.Key == "total" && kv.Value.AsInt() == 5 {
					return true
				}
			}
		}
		return false
	}, 5*time.Second)

	net := e.Network().(*simnet.Network)
	net.KillNode(n2.ID())
	n2.Crash()
	net.ReviveNode(n2.ID())
	restored, err := e.Recover()
	if err != nil || restored != 1 {
		t.Fatalf("Recover = %d, %v, want 1, nil", restored, err)
	}
	if v := callUntilOK(t, caller, "total", wire.Null(), 5*time.Second); v.AsInt() != 5 {
		t.Fatalf("total after recovery = %v, want 5", v)
	}
	caller.Release()
}

// TestContextCheckpoint covers the self-checkpoint path: a behavior
// calls Context.Checkpoint mid-service, the snapshot runs right after
// the service returns (seeing its final state), and a crash afterwards
// recovers that state without any cadence or explicit handle call.
func TestContextCheckpoint(t *testing.T) {
	t.Parallel()
	const kind = "test/recover-selfckpt"
	RegisterBehavior(kind, func() Behavior {
		return BehaviorFunc(func(ctx *Context, method string, args wire.Value) (wire.Value, error) {
			switch method {
			case "addsync":
				total := ctx.Load("total").AsInt() + args.AsInt()
				ctx.Store("total", wire.Int(total))
				if err := ctx.Checkpoint(); err != nil {
					return wire.Null(), err
				}
				return wire.Int(total), nil
			case "total":
				return ctx.Load("total"), nil
			}
			return wire.Null(), errors.New("selfckpt: unknown method " + method)
		})
	})

	st := store.NewMemStore()
	e := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond,
		Store: st,
	})
	defer e.Close()
	n1, n2 := e.NewNode(), e.NewNode()

	h, err := n2.SpawnKind("ctr", kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterName("selfckpt-ctr", h.Ref()); err != nil {
		t.Fatal(err)
	}
	caller, err := n1.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := caller.CallSync("addsync", wire.Int(9), 5*time.Second); err != nil || v.AsInt() != 9 {
		t.Fatalf("addsync = %v, %v", v, err)
	}
	// The write is asynchronous (it runs after the service's reply);
	// wait for it to land.
	waitUntil(t, func() bool { return st.Len() == 1 }, 5*time.Second)

	net := e.Network().(*simnet.Network)
	net.KillNode(n2.ID())
	n2.Crash()
	net.ReviveNode(n2.ID())
	if restored, err := e.Recover(); err != nil || restored != 1 {
		t.Fatalf("Recover = %d, %v, want 1, nil", restored, err)
	}
	if v := callUntilOK(t, caller, "total", wire.Null(), 5*time.Second); v.AsInt() != 9 {
		t.Fatalf("total after recovery = %v, want 9", v)
	}
	caller.Release()
}

// TestCheckpointErrors pins the refusal surface: checkpointing without a
// store fails with ErrNoStore, checkpointing an activity created outside
// the behavior registry fails with ErrNotDurable (recovery could never
// re-instantiate it), and both sentinels keep their errors.Is identity
// through the future reply path.
func TestCheckpointErrors(t *testing.T) {
	t.Parallel()

	// No store configured.
	bare := NewEnv(Config{TTB: 50 * time.Millisecond})
	defer bare.Close()
	bn := bare.NewNode()
	bh, err := bn.SpawnKind("ctr", "test/cluster-counter")
	if err != nil {
		t.Fatal(err)
	}
	fut, err := bh.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(5 * time.Second); !errors.Is(err, ErrNoStore) {
		t.Fatalf("checkpoint without store = %v, want ErrNoStore", err)
	}
	if _, err := bare.Recover(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("Recover without store = %v, want ErrNoStore", err)
	}
	bh.Release()

	// Store configured, but the activity has no registered kind.
	e := NewEnv(Config{TTB: 50 * time.Millisecond, Store: store.NewMemStore()})
	defer e.Close()
	n := e.NewNode()
	plain := n.NewActive("plain", echoBehavior())
	fut, err = plain.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(5 * time.Second); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("checkpoint of kindless activity = %v, want ErrNotDurable", err)
	}
	plain.Release()
}

// TestRecoverTortureCrashAtEveryOffset is the recovery half of the
// torture run (the store half lives in internal/store): a real
// checkpoint log is truncated at every byte offset and corrupted at
// every byte position, and each mutation must yield a Recover that does
// not panic and restores only values that were actually checkpointed —
// a torn or corrupted tail degrades to an earlier snapshot or to
// nothing, never to invented state.
func TestRecoverTortureCrashAtEveryOffset(t *testing.T) {
	t.Parallel()
	const kind = "test/recover-torture"
	RegisterBehavior(kind, func() Behavior { return migCounter{} })

	// Write a log with two checkpoint generations of one counter.
	dir := t.TempDir()
	fs, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv(Config{TTB: time.Second, DisableDGC: true, Store: fs})
	n := e.NewNode()
	h, err := n.SpawnKind("ctr", kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterName("torture-ctr", h.Ref()); err != nil {
		t.Fatal(err)
	}
	allowed := map[int64]bool{}
	var last int64
	for _, add := range []int64{10, 20} {
		v, err := h.CallSync("add", wire.Int(add), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fut, err := h.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		allowed[v.AsInt()] = true
		last = v.AsInt()
	}
	h.Release()
	e.Close()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%d.log", n.ID())))
	if err != nil {
		t.Fatal(err)
	}

	// check recovers from data and returns the recovered total, or -1
	// when the counter did not survive (legal for any proper prefix).
	check := func(data []byte) int64 {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, fmt.Sprintf("ckpt-%d.log", n.ID())), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfs, err := store.NewFileStore(cdir)
		if err != nil {
			t.Fatalf("NewFileStore on mutated log: %v", err)
		}
		defer cfs.Close()
		cenv := NewEnv(Config{TTB: time.Second, DisableDGC: true, Store: cfs})
		defer cenv.Close()
		_, _ = cenv.Recover() // error is legal, panic is not
		ref, err := cenv.Lookup("torture-ctr")
		if err != nil {
			return -1
		}
		node := cenv.Node(n.ID())
		if node == nil {
			t.Fatal("name recovered but hosting node absent")
		}
		ch, err := node.HandleFor(ref)
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Release()
		got, err := ch.CallSync("total", wire.Null(), 5*time.Second)
		if err != nil {
			t.Fatalf("total on recovered counter: %v", err)
		}
		return got.AsInt()
	}

	// The intact log restores the latest snapshot.
	if got := check(full); got != last {
		t.Fatalf("intact log recovered total %d, want %d", got, last)
	}
	// Every truncation: crash mid-append at each offset.
	for cut := 0; cut < len(full); cut++ {
		if got := check(full[:cut]); got != -1 && !allowed[got] {
			t.Fatalf("truncate@%d recovered total %d, not a checkpointed value", cut, got)
		}
	}
	// Every single-byte corruption.
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x5a
		if got := check(mut); got != -1 && !allowed[got] {
			t.Fatalf("corrupt@%d recovered total %d, not a checkpointed value", off, got)
		}
	}
}
