package active

// Cross-backend conformance for the tree-structured group fan-out
// (WIRE.md §10) and the sharded location directory's failure paths
// (WIRE.md §9): tree broadcast/scatter correctness over more nodes than
// the branching degree, no-hang semantics when a mid-tree relay is
// killed, shard handoff after the directory owner dies, and the stale
// location cache healing through a forwarder redirect.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// treeGroup spawns one doubling member per node and anchors every
// member handle on root, so the fan-out's distinct remote destinations
// force the tree path whenever len(nodes) exceeds the branching degree.
func treeGroup(t *testing.T, root *Node, nodes []*Node) (*Group[int64, int64], []*Handle) {
	t.Helper()
	hosted := make([]*Handle, len(nodes))
	anchored := make([]*Handle, len(nodes))
	for i, n := range nodes {
		hosted[i] = n.NewActive("member", NewService(
			Method("double", func(_ *Context, req int64) (int64, error) {
				return 2 * req, nil
			})))
		h, err := root.HandleFor(hosted[i].Ref())
		if err != nil {
			t.Fatal(err)
		}
		anchored[i] = h
	}
	return NewGroup[int64, int64]("double", anchored...), hosted
}

func TestConformanceTreeBroadcast(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		root := e.NewNode()
		nodes := make([]*Node, 7)
		for i := range nodes {
			nodes[i] = e.NewNode()
		}
		g, hosted := treeGroup(t, root, nodes)
		defer g.Release()
		defer func() {
			for _, h := range hosted {
				h.Release()
			}
		}()
		// 7 distinct remote destinations > the degree of 4: the group
		// rides a relay tree of depth 2.
		fg, err := g.Broadcast(21)
		if err != nil {
			t.Fatal(err)
		}
		resps, err := fg.WaitAll(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range resps {
			if r != 42 {
				t.Fatalf("resp[%d] = %d, want 42", i, r)
			}
		}
	})
}

func TestConformanceTreeScatter(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		root := e.NewNode()
		nodes := make([]*Node, 6)
		for i := range nodes {
			nodes[i] = e.NewNode()
		}
		g, hosted := treeGroup(t, root, nodes)
		defer g.Release()
		defer func() {
			for _, h := range hosted {
				h.Release()
			}
		}()
		reqs := make([]int64, len(nodes))
		for i := range reqs {
			reqs[i] = int64(100 + i)
		}
		fg, err := g.Scatter(reqs)
		if err != nil {
			t.Fatal(err)
		}
		resps, err := fg.WaitAll(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range resps {
			if r != 2*(100+int64(i)) {
				t.Fatalf("resp[%d] = %d, want %d (per-member args)", i, r, 2*(100+int64(i)))
			}
		}
	})
}

// TestGroupFanOutAccounting pins what the one fan-out path costs the
// root, counted message by message. A group over at most fanOutDegree
// remote nodes is a depth-1 tree: one envelope per destination node out,
// one direct future update per member back. A 1024-member group over 16
// nodes sends at most fanOutDegree envelopes from the root and gets back
// a handful of aggregates — not one update per member. (A beat's
// expireRelays may ship a partial aggregate early, hence the loose bound.)
func TestGroupFanOutAccounting(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nodes, perNode int
	}{
		{"depth1-3x2", 3, 2},
		{"tree-16x64", 16, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := &frameCounter{Transport: simnet.New(simnet.Config{})}
			e := NewEnv(Config{DisableDGC: true, Transport: fc})
			defer e.Close()
			root := e.NewNode()
			svc := NewService(Method("double", func(_ *Context, req int64) (int64, error) {
				return 2 * req, nil
			}))
			var anchored []*Handle
			for n := 0; n < tc.nodes; n++ {
				node := e.NewNode()
				for a := 0; a < tc.perNode; a++ {
					h, err := root.HandleFor(node.NewActive("member", svc).Ref())
					if err != nil {
						t.Fatal(err)
					}
					anchored = append(anchored, h)
				}
			}
			g := NewGroup[int64, int64]("double", anchored...)
			defer g.Release()
			fc.reset()
			fg, err := g.Broadcast(21)
			if err != nil {
				t.Fatal(err)
			}
			resps, err := fg.WaitAll(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range resps {
				if r != 42 {
					t.Fatalf("resp[%d] = %d, want 42", i, r)
				}
			}
			_, fromRoot := fc.count(func(r route) bool { return r.src == root.ID() })
			toRoot := func(class transport.Class) int {
				_, msgs := fc.count(func(r route) bool { return r.dst == root.ID() && r.class == class })
				return msgs
			}
			members := tc.nodes * tc.perNode
			if tc.nodes <= fanOutDegree {
				if fromRoot != tc.nodes || toRoot(transport.ClassFuture) != members || toRoot(transport.ClassApp) != 0 {
					t.Fatalf("root sent %d messages, got %d updates and %d aggregates; want %d, %d and 0",
						fromRoot, toRoot(transport.ClassFuture), toRoot(transport.ClassApp), tc.nodes, members)
				}
				return
			}
			if back := toRoot(transport.ClassFuture) + toRoot(transport.ClassApp); fromRoot > fanOutDegree || back >= 64 {
				t.Fatalf("root sent %d messages and got %d back, want at most %d and fewer than 64 for %d members",
					fromRoot, back, fanOutDegree, members)
			}
		})
	}
}

// TestGroupWaitAnyRemote: a depth-1 bundle replies per member, at once.
// One member on the remote node answers while its two co-located peers
// stay parked; WaitAny must return it without waiting for them or for a
// beat (the beat is a minute away).
func TestGroupWaitAnyRemote(t *testing.T) {
	e := NewEnv(Config{TTB: time.Minute, DisableDGC: true})
	defer e.Close()
	caller, worker := e.NewNode(), e.NewNode()
	release := make(chan struct{})
	defer close(release) // before Close, which waits for the parked services
	var parked atomic.Int32
	svc := NewService(Method("park", func(_ *Context, req int64) (int64, error) {
		if req != 0 {
			parked.Add(1)
			<-release
		}
		return req, nil
	}))
	handles := make([]*Handle, 3)
	for i := range handles {
		h, err := caller.HandleFor(worker.NewActive("member", svc).Ref())
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	g := NewGroup[int64, int64]("park", handles...)
	defer g.Release()
	fg, err := g.Scatter([]int64{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	idx, got, err := fg.WaitAny(10 * time.Second)
	if err != nil || idx != 1 || got != 0 {
		t.Fatalf("WaitAny = (%d, %d, %v), want (1, 0, nil)", idx, got, err)
	}
	// The peers reached their service and are held there still.
	waitUntil(t, func() bool { return parked.Load() == 2 }, 10*time.Second)
}

// TestGroupUnreachableFailsAtOnce: an envelope the transport refuses
// fails the group call itself with the transport's error, as a single
// call's send does — Broadcast and one-way Send alike — and unwinds every
// member's future, the co-located member's included.
func TestGroupUnreachableFailsAtOnce(t *testing.T) {
	var cut atomic.Uint32 // the node the caller can no longer reach
	e := NewEnv(Config{DisableDGC: true, Transport: simnet.New(simnet.Config{
		Reachable: func(_, dst ids.NodeID) bool { return uint32(dst) != cut.Load() },
	})})
	defer e.Close()
	caller, worker := e.NewNode(), e.NewNode()
	svc := NewService(Method("double", func(_ *Context, req int64) (int64, error) {
		return 2 * req, nil
	}))
	remote, err := caller.HandleFor(worker.NewActive("remote", svc).Ref())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup[int64, int64]("double", caller.NewActive("local", svc), remote)
	defer g.Release()
	cut.Store(uint32(worker.ID()))
	if _, err := g.Broadcast(21); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("Broadcast = %v, want ErrUnreachable", err)
	}
	if err := g.Send(21); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("Send = %v, want ErrUnreachable", err)
	}
	if n := caller.futures.size(); n != 0 {
		t.Fatalf("%d futures left in the caller's table, want 0", n)
	}
}

// TestClusterTreeBroadcastRelayKilled kills a mid-tree relay node while
// every member is parked mid-service: the members hosted on (or routed
// through) the dead relay fail with ErrNodeDead via the first-hop await
// machinery, every other member still answers through the reparented
// relay records, and no future ever hangs.
func TestClusterTreeBroadcastRelayKilled(t *testing.T) {
	t.Parallel()
	e := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond,
		Cluster: ClusterConfig{Enabled: true},
	})
	defer e.Close()
	root := e.NewNode()
	const members = 8
	nodes := make([]*Node, members)
	for i := range nodes {
		nodes[i] = e.NewNode()
	}
	arrived := make(chan struct{}, members)
	release := make(chan struct{})
	hosted := make([]*Handle, members)
	anchored := make([]*Handle, members)
	for i, n := range nodes {
		hosted[i] = n.NewActive("member", NewService(
			Method("park", func(_ *Context, req int64) (int64, error) {
				arrived <- struct{}{}
				<-release
				return req, nil
			})))
		h, err := root.HandleFor(hosted[i].Ref())
		if err != nil {
			t.Fatal(err)
		}
		anchored[i] = h
	}
	g := NewGroup[int64, int64]("park", anchored...)
	defer g.Release()
	fg, err := g.Broadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	// Every member is mid-service: the relay records up the tree are all
	// live and waiting on replies when the kill lands.
	for i := 0; i < members; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d members reached mid-service", i, members)
		}
	}
	// With 8 bundles (one per node, in member order) and degree 4 the
	// subtree groups are pairs; nodes[2] relays nodes[3]'s bundle —
	// killing it severs a genuine mid-tree edge, not just a leaf. The
	// network goes dark first; the release then lets every surviving
	// member answer while the death is still being detected, exercising
	// the relay records' flush-to-dead-parent fallback.
	victim := nodes[2]
	e.Network().(*simnet.Network).KillNode(victim.ID())
	close(release)
	victim.Crash()
	waitState(t, e, victim.ID(), cluster.StateDead, 10*time.Second)

	okCount := 0
	for i := 0; i < members; i++ {
		v, errW := fg.At(i).Wait(15 * time.Second)
		switch {
		case errW == nil:
			if v != 7 {
				t.Fatalf("member %d reply = %d, want 7", i, v)
			}
			okCount++
		case errors.Is(errW, ErrFutureTimeout):
			t.Fatalf("member %d hung after the relay death", i)
		case i == 2 || i == 3:
			// Hosted on, or first-hop-routed through, the dead relay:
			// ErrNodeDead is the documented fail-fast outcome.
			if !errors.Is(errW, ErrNodeDead) {
				t.Fatalf("member %d error = %v, want ErrNodeDead", i, errW)
			}
		default:
			t.Fatalf("member %d (unrelated to the dead relay) failed: %v", i, errW)
		}
	}
	// The members on dead nodes[2] can never answer; everyone else's
	// reply must have survived the relay's death.
	if okCount < members-2 {
		t.Fatalf("only %d/%d members answered after a mid-tree kill", okCount, members)
	}
}

// TestClusterShardHandoffOnNodeDeath kills the directory shard owner of
// a migrated identity AND its forwarder node, then resolves the stale
// identity from a node with no location knowledge: the origin node's
// per-beat re-announce must repopulate the ring's new owner, and the
// directory query then routes the call to the live activity.
func TestClusterShardHandoffOnNodeDeath(t *testing.T) {
	t.Parallel()
	e := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond,
		Cluster: ClusterConfig{Enabled: true},
	})
	defer e.Close()
	n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()
	n4, n5 := e.NewNode(), e.NewNode()

	// Spawn counters on n2 until one's identity shards onto n4 or n5 —
	// nodes that host neither end of the migration, so their death tests
	// the handoff and nothing else. 128 vnodes over 5 members make this
	// a handful of tries at most.
	var h *Handle
	var owner ids.NodeID
	for try := 0; try < 256; try++ {
		cand, err := n2.SpawnKind("counter", "test/cluster-counter")
		if err != nil {
			t.Fatal(err)
		}
		id := mustRef(t, cand.Ref())
		o, ok := e.ring.Load().Owner(id)
		if ok && (o == n4.ID() || o == n5.ID()) {
			h, owner = cand, o
			break
		}
		cand.Release()
	}
	if h == nil {
		t.Fatal("no spawned identity sharded onto n4/n5 in 256 tries")
	}
	oldRef := h.Ref()
	oldID := mustRef(t, oldRef)
	// A keeper handle on n1 pins the activity across the deaths ahead —
	// its spawn handle is a stub of n2's root and dies with it, and a
	// referent with no referencer left is DGC'd, which is not the
	// scenario under test. The keeper must learn the post-migration
	// identity (via the forwarder's redirect) so its heartbeats follow
	// the activity to n3 before n2 goes dark.
	keeper, err := n1.HandleFor(oldRef)
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Release()
	mfut, err := h.Migrate(n3.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfut.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := keeper.CallSync("add", wire.Int(1), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		return n1.resolveRebind(oldID).Node == n3.ID()
	}, 5*time.Second)

	// Kill the shard owner, then the forwarder's node: every fast path a
	// stale holder could lean on is now gone — only the handoff works.
	for _, victim := range []*Node{nodeByID(t, []*Node{n4, n5}, owner), n2} {
		e.Network().(*simnet.Network).KillNode(victim.ID())
		victim.Crash()
		waitState(t, e, victim.ID(), cluster.StateDead, 10*time.Second)
	}

	// The fresh caller is the surviving one of n4/n5: no forwarder to
	// lean on (dead), no learned cache — it must go through the shard,
	// which the origin node n3 repopulates beat by beat.
	fresh := n4
	if owner == n4.ID() {
		fresh = n5
	}
	stale, err := fresh.HandleFor(oldRef)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Release()
	waitUntil(t, func() bool {
		v, errC := stale.CallSync("add", wire.Int(3), 5*time.Second)
		if errC == nil {
			if v.AsInt() != 4 {
				t.Fatalf("handoff call = %v, want 4", v)
			}
			return true
		}
		if !errors.Is(errC, ErrNodeDead) && !errors.Is(errC, ErrUnknownActivity) {
			t.Fatalf("stale call error = %v, want nil or a fast-fail sentinel while the shard repopulates", errC)
		}
		return false
	}, 10*time.Second)
	h.Release()
}

// TestConformanceStaleCacheRedirect migrates an activity twice: a caller
// that learned the first hop holds a stale cache entry pointing at the
// intermediate home, and the call through it must relay via the
// forwarder and compress the cache onto the final identity.
func TestConformanceStaleCacheRedirect(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2, n3, n4 := e.NewNode(), e.NewNode(), e.NewNode(), e.NewNode()
		h, err := n2.SpawnKind("counter", "test/cluster-counter")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		oldRef := h.Ref()
		oldID := mustRef(t, oldRef)
		caller, err := n1.HandleFor(oldRef)
		if err != nil {
			t.Fatal(err)
		}
		defer caller.Release()
		if _, err := caller.CallSync("add", wire.Int(1), 5*time.Second); err != nil {
			t.Fatal(err)
		}

		migrateTo := func(dst *Node) {
			t.Helper()
			mfut, errM := h.Migrate(dst.ID())
			if errM != nil {
				t.Fatal(errM)
			}
			if _, errM := mfut.Wait(5 * time.Second); errM != nil {
				t.Fatal(errM)
			}
		}
		migrateTo(n3)
		// Teach n1 the first hop, then wait until its cache holds it.
		if v, errC := caller.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 2 {
			t.Fatalf("post-first-migration call = %v, %v", v, errC)
		}
		waitUntil(t, func() bool {
			return n1.resolveRebind(oldID).Node == n3.ID()
		}, 5*time.Second)

		// Second migration: n1's cache entry is now stale (it points at
		// the n3 identity). The call must still land — forwarder relay —
		// and the redirect must compress the cache onto the n4 identity.
		migrateTo(n4)
		if v, errC := caller.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 3 {
			t.Fatalf("stale-cache call = %v, %v", v, errC)
		}
		waitUntil(t, func() bool {
			return n1.resolveRebind(oldID).Node == n4.ID()
		}, 5*time.Second)
	})
}

// nodeByID returns the node with the given ID from candidates.
func nodeByID(t *testing.T, candidates []*Node, id ids.NodeID) *Node {
	t.Helper()
	for _, n := range candidates {
		if n.ID() == id {
			return n
		}
	}
	t.Fatalf("no candidate node has ID %v", id)
	return nil
}
