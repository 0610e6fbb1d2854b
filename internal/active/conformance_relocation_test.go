package active

// The relocation notice's safety job across processes (WIRE.md §8, §9):
// a holder whose first heartbeat never reached a forwarder is on no
// referencer list, so no redirect is pushed at it. When the forwarder's
// node goes away — a graceful Leave, or a death that a survivor's
// failover adoption answers — the only thing that rebinds the holder is
// the directory announce sent to every member process. Without it the
// holder keeps beating the vanished identity, the relocated activity
// hears from nobody, goes TTA-alone and is collected while referenced.
//
// Both scenarios run on stepped time over TCP: a TTB of an hour means no
// driver beats by itself, so the holder provably never heartbeats the
// forwarder; the test beats the nodes by hand between moves of the
// clock. The relocated identity is chosen so that its directory shard
// never sits on the holder's node: the shard's announcements would
// otherwise rebind the holder too, and the scenario would not test the
// notice.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/store"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// steppedTCPCluster starts one TCP environment per entry of perProc, the
// first the founding seed, all on clock with a TTB of an hour, and makes
// perProc[i] nodes in environment i; it returns the nodes in that order
// once every process sees all of them. Each process joins only after
// the processes before it see all nodes so far: a join hands over the
// seed's member view, and a node-up still in flight would miss the
// joiner. A non-nil st turns checkpoints and failover on.
func steppedTCPCluster(t *testing.T, clock *stepClock, st store.Store, perProc ...int) ([]*Env, []*Node) {
	t.Helper()
	envs := make([]*Env, len(perProc))
	var nodes []*Node
	allSeen := func() bool {
		for _, e := range envs {
			for _, n := range nodes {
				if e != nil && e.NodeHealth(n.ID()) != cluster.StateAlive {
					return false
				}
			}
		}
		return true
	}
	for i := range envs {
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		seed := ""
		if i > 0 {
			seed = envs[0].Network().(*tcpnet.Network).Addr()
		}
		envs[i] = clock.install(NewEnv(Config{
			TTB: time.Hour, Transport: tr, Store: st,
			Cluster: ClusterConfig{Enabled: true, Seed: seed, Failover: st != nil},
		}))
		t.Cleanup(envs[i].Close)
		if err := envs[i].Join(); err != nil {
			t.Fatalf("join: %v", err)
		}
		for k := 0; k < perProc[i]; k++ {
			nodes = append(nodes, envs[i].NewNode())
		}
		waitUntil(t, allSeen, 10*time.Second)
	}
	return envs, nodes
}

// shardOwner is the node whose directory shard holds id in the ring of
// members.
func shardOwner(id ids.ActivityID, members ...ids.NodeID) ids.NodeID {
	o, _ := location.NewRing(members, 0).Owner(id)
	return o
}

// spawnWhere spawns counters on n until one's identity satisfies ok.
func spawnWhere(t *testing.T, n *Node, ok func(ids.ActivityID) bool) *Handle {
	t.Helper()
	for try := 0; try < 256; try++ {
		h, err := n.SpawnKind("counter", "test/cluster-counter")
		if err != nil {
			t.Fatal(err)
		}
		if ok(mustRef(t, h.Ref())) {
			return h
		}
		h.Release()
	}
	t.Fatal("no spawned identity sharded as required in 256 tries")
	return nil
}

// awaitRelocation gives the notice, which a failover adoption sends from
// its own goroutine, time to rebind holder's node. It does not fail: without the notice the
// call at the end of the scenario does.
func awaitRelocation(holder *Node, old ids.ActivityID) {
	for deadline := time.Now().Add(5 * time.Second); holder.resolveRebind(old) == old && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// idlePastTTA moves the clock on one TTB at a time, past TTA, beating
// holder first and then the relocated activity's node.
func idlePastTTA(clock *stepClock, holder, host *Node) {
	cfg := holder.env.cfg
	for idle := time.Duration(0); idle <= cfg.TTA+cfg.TTB; idle += cfg.TTB {
		clock.offset.Add(int64(cfg.TTB))
		holder.CollectNow()
		host.CollectNow()
	}
}

// TestClusterLeaveRelocatesUnknownHolder: a holder in another process
// takes its reference just before the activity's node Leaves, so its
// first beat never reaches the forwarder. After idling past TTA it calls
// and must reach the drained activity, state intact.
func TestClusterLeaveRelocatesUnknownHolder(t *testing.T) {
	t.Parallel()
	clock := &stepClock{}
	_, nodes := steppedTCPCluster(t, clock, nil, 2, 1)
	leaver, dst, holder := nodes[0], nodes[1], nodes[2]

	// Shard off the holder both while the leaver is a member (where the
	// migration is announced) and after (where dst re-announces it).
	h := spawnWhere(t, leaver, func(id ids.ActivityID) bool {
		return shardOwner(id, leaver.ID(), dst.ID(), holder.ID()) != holder.ID() &&
			shardOwner(id, dst.ID(), holder.ID()) == dst.ID()
	})
	oldID := mustRef(t, h.Ref())
	hc, err := holder.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Release()
	h.Release()
	if v, errC := hc.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 1 {
		t.Fatalf("call before the Leave = %v, %v", v, errC)
	}

	if err := leaver.Leave(dst.ID()); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	awaitRelocation(holder, oldID)
	idlePastTTA(clock, holder, dst)
	if v, errC := hc.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 2 {
		t.Fatalf("call after the Leave and TTA idle = %v, %v; want 2", v, errC)
	}
}

// TestClusterFailoverRelocatesUnknownHolder: the same holder, but the
// activity's process dies and the survivor in a third process adopts
// its checkpoint under a fresh identity. After idling past TTA the
// holder calls and must reach the adopted activity.
func TestClusterFailoverRelocatesUnknownHolder(t *testing.T) {
	t.Parallel()
	clock := &stepClock{}
	envs, nodes := steppedTCPCluster(t, clock, store.NewMemStore(), 1, 1, 1)
	survivor, victim, holder := nodes[0], nodes[1], nodes[2]

	// Shard off the holder once the victim is gone, where the survivor
	// announces the adoption.
	h := spawnWhere(t, victim, func(id ids.ActivityID) bool {
		return shardOwner(id, survivor.ID(), holder.ID()) == survivor.ID()
	})
	hc, err := holder.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Release()
	if v, errC := hc.CallSync("add", wire.Int(5), 5*time.Second); errC != nil || v.AsInt() != 5 {
		t.Fatalf("call before the crash = %v, %v", v, errC)
	}
	ckpt, err := hc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Wait(5 * time.Second); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// A keeper on the survivor gives the holder a heartbeat to send
	// there, so the two live processes keep hearing of each other while
	// the clock runs through the failure detector's deadlines.
	keeper, err := holder.HandleFor(survivor.NewActive("keeper", echoBehavior()).Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Release()

	// Hard-kill the victim's process and beat until the survivor hosts
	// the adopted activity next to the keeper.
	envs[1].Network().Close()
	for beat := 0; survivor.LiveActivities() < 2; beat++ {
		if beat == 50 {
			t.Fatalf("no adoption after %d beats: victim is %v at the survivor", beat, envs[0].NodeHealth(victim.ID()))
		}
		clock.offset.Add(int64(time.Hour))
		survivor.CollectNow()
		holder.CollectNow()
	}
	awaitRelocation(holder, mustRef(t, h.Ref()))
	idlePastTTA(clock, holder, survivor)
	if v, errC := hc.CallSync("add", wire.Int(1), 5*time.Second); errC != nil || v.AsInt() != 6 {
		t.Fatalf("call after the failover and TTA idle = %v, %v; want 6", v, errC)
	}
}

// TestClusterRelocateSplitsLargeBatch: a Leave or failover of a node
// hosting more activities than one announce may carry still rebinds
// every holder. The batch goes out in envelopes of at most
// location.MaxAnnounce pairs; the last pair, alone in the last envelope,
// must reach every local node and the other process.
func TestClusterRelocateSplitsLargeBatch(t *testing.T) {
	t.Parallel()
	envs, nodes := steppedTCPCluster(t, &stepClock{}, nil, 2, 1)
	moved := make([]location.Rebind, location.MaxAnnounce+1)
	for i := range moved {
		seq := uint32(i + 1)
		moved[i] = location.Rebind{
			Old: ids.ActivityID{Node: 900, Seq: seq},
			New: ids.ActivityID{Node: 901, Seq: seq},
		}
	}
	last := moved[len(moved)-1]
	if err := envs[0].relocate(moved); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[:2] {
		if got := n.resolveRebind(last.Old); got != last.New {
			t.Fatalf("local node %v resolves %v to %v, want %v", n.ID(), last.Old, got, last.New)
		}
	}
	waitUntil(t, func() bool { return nodes[2].resolveRebind(last.Old) == last.New }, 10*time.Second)
}

// lossyNetwork is a TCP transport whose next drops process-addressed
// exchanges with the process at lose fail without being sent.
type lossyNetwork struct {
	*tcpnet.Network
	lose  atomic.Pointer[string]
	drops atomic.Int32
}

var errLostSend = errors.New("test: send dropped")

func (l *lossyNetwork) CallAddr(addr string, class transport.Class, payload []byte) ([]byte, error) {
	if p := l.lose.Load(); p != nil && *p == addr && l.drops.Add(-1) >= 0 {
		return nil, errLostSend
	}
	return l.Network.CallAddr(addr, class, payload)
}

// TestClusterRelocateRetriesLostSend: a relocation announce whose send
// to a member process fails is sent again. One lost send still gets the
// relocation to the other process; a send lost every time makes Leave
// report it. Both count every failed attempt in Stats.
func TestClusterRelocateRetriesLostSend(t *testing.T) {
	for _, c := range []struct {
		name   string
		drops  int
		arrive bool
	}{
		{"first send lost", 1, true},
		{"every send lost", relocateAttempts, false},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			clock := &stepClock{}
			tr, err := tcpnet.New(tcpnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			lossy := &lossyNetwork{Network: tr}
			seed := clock.install(NewEnv(Config{TTB: time.Hour, Transport: lossy, Cluster: ClusterConfig{Enabled: true}}))
			t.Cleanup(seed.Close)
			if err := seed.Join(); err != nil {
				t.Fatal(err)
			}
			dst, leaver := seed.NewNode(), seed.NewNode()
			tr2, err := tcpnet.New(tcpnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			other := clock.install(NewEnv(Config{TTB: time.Hour, Transport: tr2, Cluster: ClusterConfig{Enabled: true, Seed: tr.Addr()}}))
			t.Cleanup(other.Close)
			if err := other.Join(); err != nil {
				t.Fatal(err)
			}
			remote := other.NewNode()
			waitUntil(t, func() bool {
				return seed.NodeHealth(remote.ID()) == cluster.StateAlive && other.NodeHealth(leaver.ID()) == cluster.StateAlive
			}, 10*time.Second)

			// The identity's directory shard is not on the other process,
			// or the shard's announcement would rebind it there too.
			h := spawnWhere(t, leaver, func(id ids.ActivityID) bool {
				return shardOwner(id, dst.ID(), leaver.ID(), remote.ID()) != remote.ID()
			})
			old := mustRef(t, h.Ref())
			h.Release()
			addr := tr2.Addr()
			lossy.lose.Store(&addr)
			lossy.drops.Store(int32(c.drops))
			err = leaver.Leave(dst.ID())
			if c.arrive && err != nil {
				t.Fatalf("Leave after one lost send: %v", err)
			}
			if !c.arrive && !errors.Is(err, errLostSend) {
				t.Fatalf("Leave with every send lost = %v, want the lost send reported", err)
			}
			if got := seed.Stats().RelocateFailures; got != c.drops {
				t.Fatalf("RelocateFailures = %d, want %d", got, c.drops)
			}
			moved := dst.resolveRebind(old)
			if moved == old {
				t.Fatalf("the leaving node's activity %v did not move to %v", old, dst.ID())
			}
			if got := remote.resolveRebind(old); (got == moved) != c.arrive {
				t.Fatalf("the other process resolves %v to %v; the relocation to %v should arrive: %v", old, got, moved, c.arrive)
			}
		})
	}
}
