package active

// Cross-backend conformance: every scenario here runs once per transport
// implementation (internal/simnet and internal/tcpnet) against the same
// runtime, pinning down that the DGC's correctness depends only on the
// transport.Transport contract — per-pair FIFO, caller-opened exchanges,
// per-class accounting — and not on the in-memory substrate it was
// developed against.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// substrates enumerates the transport backends under conformance test.
// cfg returns a fresh compressed-timing Config wired to a fresh substrate
// instance (the Env takes ownership and closes it).
var substrates = []struct {
	name string
	cfg  func(t *testing.T) Config
}{
	{"simnet", func(t *testing.T) Config {
		return Config{TTB: 10 * time.Millisecond, TTA: 25 * time.Millisecond}
	}},
	{"tcp", func(t *testing.T) Config {
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return Config{TTB: 10 * time.Millisecond, TTA: 30 * time.Millisecond, Transport: tr}
	}},
}

// forEachSubstrate runs f as a subtest once per backend.
func forEachSubstrate(t *testing.T, f func(t *testing.T, e *Env)) {
	for _, s := range substrates {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			e := NewEnv(s.cfg(t))
			t.Cleanup(e.Close)
			f(t, e)
		})
	}
}

func TestConformanceCallAcrossNodes(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2 := e.NewNode(), e.NewNode()
		h := n2.NewActive("remote", relay{})
		defer h.Release()
		h1, err := n1.HandleFor(h.Ref())
		if err != nil {
			t.Fatal(err)
		}
		defer h1.Release()
		got, err := h1.CallSync("echo", wire.String("conformance"), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.AsString() != "conformance" {
			t.Fatalf("echo = %v", got)
		}
		if e.Network().Snapshot().Bytes[transport.ClassApp] == 0 {
			t.Fatal("no app bytes accounted for a cross-node call")
		}
		if e.Network().Snapshot().Bytes[transport.ClassFuture] == 0 {
			t.Fatal("no future bytes accounted for a cross-node result")
		}
	})
}

func TestConformanceSendFIFO(t *testing.T) {
	// One-way sends followed by a call from the same source: the call's
	// answer must observe every prior send (per-pair FIFO).
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2 := e.NewNode(), e.NewNode()
		h := n2.NewActive("seq", relay{})
		defer h.Release()
		h1, err := n1.HandleFor(h.Ref())
		if err != nil {
			t.Fatal(err)
		}
		defer h1.Release()
		const total = 50
		for i := 0; i < total; i++ {
			if err := h1.Send("set:last", wire.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		got, err := h1.CallSync("get:last", wire.Null(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.AsInt() != total-1 {
			t.Fatalf("last = %v, want %d (FIFO violated)", got, total-1)
		}
	})
}

func TestConformanceReleaseCollectsAcyclically(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2 := e.NewNode(), e.NewNode()
		h := n2.NewActive("a", relay{})
		h1, err := n1.HandleFor(h.Ref())
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		h1.Release()
		if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if e.Stats().Collected[core.ReasonAcyclic] < 1 {
			t.Fatalf("collected = %+v, want an acyclic termination", e.Stats().Collected)
		}
	})
}

func TestConformanceDistributedCycleCollected(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()
		ha := n1.NewActive("a", relay{})
		hb := n2.NewActive("b", relay{})
		hc := n3.NewActive("c", relay{})
		for _, link := range []struct{ h, to *Handle }{{ha, hb}, {hb, hc}, {hc, ha}} {
			if _, err := link.h.CallSync("set:peer", link.to.Ref(), 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		ha.Release()
		hb.Release()
		hc.Release()
		if _, err := e.WaitCollected(0, 15*time.Second); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		cyclic := st.Collected[core.ReasonCyclic] + st.Collected[core.ReasonNotified]
		if cyclic < 2 || st.Collected[core.ReasonCyclic] < 1 {
			t.Fatalf("collected = %+v, want a cyclic consensus", st.Collected)
		}
	})
}

func TestConformanceTerminatedCalleeFailsFuture(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		n1, n2 := e.NewNode(), e.NewNode()
		h := n2.NewActive("doomed", relay{})
		h1, err := n1.HandleFor(h.Ref())
		if err != nil {
			t.Fatal(err)
		}
		defer h1.Release()
		h.Terminate()
		fut, err := h1.Call("ping", wire.Null())
		if err != nil {
			return // synchronous rejection is equally conformant
		}
		if _, err := fut.Wait(5 * time.Second); err == nil {
			t.Fatal("call to a terminated activity must fail its future")
		}
	})
}

func TestConformanceTypedGroupBroadcast(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		nodes := []*Node{e.NewNode(), e.NewNode(), e.NewNode()}
		handles := make([]*Handle, len(nodes))
		for i, n := range nodes {
			handles[i] = n.NewActive("member", NewService(
				Method("double", func(_ *Context, req int64) (int64, error) {
					return 2 * req, nil
				})))
		}
		g := NewGroup[int64, int64]("double", handles...)
		defer g.Release()
		fg, err := g.Broadcast(21)
		if err != nil {
			t.Fatal(err)
		}
		resps, err := fg.WaitAll(5 * time.Second)
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

// TestConformanceTwoEnvsOverTCP is the multi-process shape in miniature:
// two environments, each with its own tcpnet substrate and a disjoint
// node-identifier range, wired together through AddPeer address books. The
// client references a server activity, calls it, heartbeats it across the
// wire, and after the release the server collects it acyclically — the
// full DGC loop with every byte passing through real TCP connections.
func TestConformanceTwoEnvsOverTCP(t *testing.T) {
	const serverFirstNode = 100
	serverTr, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	serverEnv := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 40 * time.Millisecond,
		Transport: serverTr, FirstNode: serverFirstNode,
	})
	t.Cleanup(serverEnv.Close)
	serverNode := serverEnv.NewNode()
	if serverNode.ID() != serverFirstNode {
		t.Fatalf("server node = %v, want node-%d", serverNode.ID(), serverFirstNode)
	}
	sh := serverNode.NewActive("service", relay{})

	// The client process: its address book maps the server's node range,
	// and the server learns the client's address for the return path of
	// future updates (DGC responses need no such entry — they ride the
	// caller's connection).
	clientTr, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clientTr.AddPeer(serverFirstNode, serverTr.Addr())
	serverTr.AddPeer(1, clientTr.Addr())
	clientEnv := NewEnv(Config{
		TTB: 10 * time.Millisecond, TTA: 40 * time.Millisecond,
		Transport: clientTr,
	})
	t.Cleanup(clientEnv.Close)
	clientNode := clientEnv.NewNode()

	// Out-of-band bootstrap, as a real deployment would do it: the client
	// knows the server created its service first, so its identifier is
	// the first activity of the server's first node.
	serviceID := ids.ActivityID{Node: serverFirstNode, Seq: 1}
	if ref, _ := sh.Ref().AsRef(); ref != serviceID {
		t.Fatalf("service id = %v, want %v", ref, serviceID)
	}
	ch, err := clientNode.HandleFor(wire.Ref(serviceID))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ch.CallSync("echo", wire.String("over tcp"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsString() != "over tcp" {
		t.Fatalf("echo = %v", got)
	}
	if clientTr.Snapshot().Bytes[transport.ClassApp] == 0 {
		t.Fatal("client accounted no app traffic")
	}

	// Drop the server's own handle: the client node's root is now the only
	// referencer, heartbeating across processes. Still alive after many
	// TTA periods.
	sh.Release()
	dgcSettle(t, serverEnv, serverNode)
	if serverEnv.LiveActivities() != 1 {
		t.Fatalf("server live = %d, want 1 (remote handle pins it)", serverEnv.LiveActivities())
	}
	if clientTr.Snapshot().Bytes[transport.ClassDGC] == 0 {
		t.Fatal("client sent no DGC heartbeats over TCP")
	}

	// Release the cross-process reference: beats stop, the server-side
	// activity goes TTA-idle and collects itself.
	ch.Release()
	if _, err := serverEnv.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
