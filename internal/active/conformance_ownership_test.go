package active

// Payload ownership (WIRE.md §2): a typed call copies a payload once per
// hop, and the copies it skips must never let two parties share bytes.
// Each scenario runs across simnet, across TCP with a corked flusher
// lane, and within one node.

import (
	"bytes"
	"cmp"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

type ownedReq struct {
	Payload []byte `wire:"payload"`
}

type ownedResp struct {
	Payload []byte `wire:"payload"`
}

// ownershipEnvs runs f once per backend; local reports the intra-node
// run, where caller and servant share a node.
func ownershipEnvs(t *testing.T, f func(t *testing.T, e *Env, local bool)) {
	for _, c := range []struct {
		name  string
		local bool
		cfg   func(t *testing.T) Config
	}{
		{"simnet", false, func(*testing.T) Config { return Config{DisableDGC: true} }},
		{"tcp-corked", false, func(t *testing.T) Config {
			tr, err := tcpnet.New(tcpnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return Config{DisableDGC: true, Transport: tr, BatchWindow: 200 * time.Microsecond}
		}},
		{"intra-node", true, func(*testing.T) Config { return Config{DisableDGC: true} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e := NewEnv(c.cfg(t))
			t.Cleanup(e.Close)
			f(t, e, c.local)
		})
	}
}

// pattern returns n bytes that differ from every overwrite below.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i%251) + 1
	}
	return b
}

// ownershipServant spawns the servant, on the caller's node when local,
// and returns the caller's stub for method.
func ownershipServant[Req, Resp any](t *testing.T, e *Env, local bool, method string, svc *Service) (Stub[Req, Resp], *ActiveObject) {
	t.Helper()
	caller := e.NewNode()
	callee := caller
	if !local {
		callee = e.NewNode()
	}
	h := callee.NewActive("owner", svc)
	t.Cleanup(h.Release)
	hc, err := caller.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hc.Release)
	servant, ok := e.activity(mustRef(t, h.Ref()))
	if !ok {
		t.Fatal("servant not found")
	}
	return NewStub[Req, Resp](hc, method), servant
}

// TestOwnershipCallerReusesSlice: the caller overwrites its []byte the
// moment Stub.Call returns; the servant, held until then, still sees the
// bytes as they were at the call.
func TestOwnershipCallerReusesSlice(t *testing.T) {
	ownershipEnvs(t, func(t *testing.T, e *Env, local bool) {
		want := pattern(4096)
		gate := make(chan struct{})
		stub, _ := ownershipServant[ownedReq, bool](t, e, local, "check", NewService(
			Method("check", func(_ *Context, req ownedReq) (bool, error) {
				<-gate
				return bytes.Equal(req.Payload, want), nil
			})))
		buf := bytes.Clone(want)
		fut, err := stub.Call(ownedReq{Payload: buf})
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0
		}
		close(gate)
		if same, err := fut.Wait(10 * time.Second); err != nil || !same {
			t.Fatalf("servant saw the original bytes: %v, %v", same, err)
		}
	})
}

// TestOwnershipServantKeepsPayload: the servant overwrites req.Payload and
// keeps it; neither the caller's slice nor a second request queued with
// the same slice sees the change.
func TestOwnershipServantKeepsPayload(t *testing.T) {
	ownershipEnvs(t, func(t *testing.T, e *Env, local bool) {
		want := pattern(4096)
		gate := make(chan struct{})
		var kept []byte
		stub, servant := ownershipServant[ownedReq, bool](t, e, local, "take", NewService(
			Method("take", func(_ *Context, req ownedReq) (bool, error) {
				if kept != nil {
					return bytes.Equal(req.Payload, want), nil
				}
				<-gate
				kept = req.Payload
				for i := range kept {
					kept[i] = 0xff
				}
				return true, nil
			})))
		buf := bytes.Clone(want)
		first, err := stub.Call(ownedReq{Payload: buf})
		if err != nil {
			t.Fatal(err)
		}
		dup, err := stub.Call(ownedReq{Payload: buf})
		if err != nil {
			t.Fatal(err)
		}
		// The first call is in service, held at the gate; the duplicate
		// waits in the queue.
		waitUntil(t, func() bool { return servant.queue.pendingCount() == 1 }, 10*time.Second)
		close(gate)
		if _, err := first.Wait(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if same, err := dup.Wait(10 * time.Second); err != nil || !same {
			t.Fatalf("queued duplicate saw the original bytes: %v, %v", same, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatal("the servant's write reached the caller's slice")
		}
		if !bytes.Equal(kept, bytes.Repeat([]byte{0xff}, len(want))) {
			t.Fatal("the bytes the servant kept changed after its service")
		}
	})
}

// TestOwnershipFutureConsumers: two consumers of one future value that
// carries bytes each get their own; a write through one reaches neither
// the other nor the untyped view. Then bind parity: a payload carrying a
// Ref and a future homed on a third node leaves its recipient holding
// the same on every substrate (bindParity).
func TestOwnershipFutureConsumers(t *testing.T) {
	ownershipEnvs(t, func(t *testing.T, e *Env, local bool) {
		want := pattern(4096)
		stub, _ := ownershipServant[bool, ownedResp](t, e, local, "give", NewService(
			Method("give", func(_ *Context, _ bool) (ownedResp, error) {
				return ownedResp{Payload: bytes.Clone(want)}, nil
			})))
		fut, err := stub.Call(true)
		if err != nil {
			t.Fatal(err)
		}
		one, err := fut.Wait(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := range one.Payload {
			one.Payload[i] = 0
		}
		two, err := fut.Wait(10 * time.Second)
		if err != nil || !bytes.Equal(two.Payload, want) {
			t.Fatalf("second consumer: %v; its bytes changed with the first's", err)
		}
		three, err := Typed[ownedResp](fut.Raw()).Wait(10 * time.Second)
		if err != nil || !bytes.Equal(three.Payload, want) {
			t.Fatalf("consumer through Typed: %v; its bytes changed with the first's", err)
		}
		raw, err := fut.Raw().Wait(10 * time.Second)
		if err != nil || !bytes.Equal(raw.Get("payload").AsBytes(), want) {
			t.Fatalf("untyped consumer: %v; its bytes changed with the first's", err)
		}
		bindParity(t, e, local)
	})
}

// bindView is what a delivered payload left its recipient holding.
type bindView struct {
	referenced []ids.ActivityID // the recipient's collector edges
	pins       int              // heap roots the delivery added on its node
	adopted    bool             // the future's entry there is a proxy held by the recipient
}

// bindParity delivers list(list(Ref T, future F)), F homed on a third
// node and owned by O, once as a request and once as a reply, intra- or
// cross-node. Either way the recipient — the servant, then the caller's
// root — must end with edges to T and O (beside the root's handle edge),
// one pin, F adopted for it, and F's home holding the recipient's node as
// its one registered holder: the one bind site serves every substrate.
func bindParity(t *testing.T, e *Env, local bool) {
	third := e.NewNode()
	tgt, owner := third.NewActive("T", relay{}), third.NewActive("O", relay{})
	t.Cleanup(tgt.Release)
	t.Cleanup(owner.Release)
	tID, oID := mustRef(t, tgt.Ref()), mustRef(t, owner.Ref())
	reqF, repF := third.futures.create(third, oID), third.futures.create(third, oID)
	payload := func(f *Future) wire.Value {
		return wire.List(wire.List(tgt.Ref(), wire.FutureVal(wire.FutureRef{ID: f.ID(), Owner: oID})))
	}
	byID := func(a, b ids.ActivityID) int { return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Seq, b.Seq)) }
	view := func(ao *ActiveObject, f *Future, rootsBefore int) bindView {
		ref := ao.collector.Referenced()
		slices.SortFunc(ref, byID)
		entry, ok := ao.node.futures.lookup(f.ID())
		adopted := ok && entry.proxy && slices.Contains(entry.localHolderSnapshot(), ao.id)
		return bindView{referenced: ref, pins: ao.node.heap.NumRoots() - rootsBefore, adopted: adopted}
	}
	check := func(what string, got bindView, want []ids.ActivityID, home *Future, recipient ids.NodeID) {
		t.Helper()
		slices.SortFunc(want, byID)
		if !slices.Equal(got.referenced, want) || got.pins != 1 || !got.adopted {
			t.Errorf("%s: recipient holds %+v; want edges %v, 1 pin, the future adopted", what, got, want)
		}
		waitUntil(t, func() bool {
			home.mu.Lock()
			defer home.mu.Unlock()
			return slices.Equal(home.holders, []ids.NodeID{recipient})
		}, 10*time.Second)
	}

	views := make(chan bindView, 1)
	var rootsBefore int
	svc := NewService(
		Method("take", func(ctx *Context, _ wire.Value) (bool, error) {
			views <- view(ctx.ao, reqF, rootsBefore)
			return true, nil
		}),
		Method("give", func(*Context, bool) (wire.Value, error) { return payload(repF), nil }))
	take, servant := ownershipServant[wire.Value, bool](t, e, local, "take", svc)
	rootsBefore = servant.node.heap.NumRoots()
	if _, err := take.CallSync(payload(reqF), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	check("request", <-views, []ids.ActivityID{tID, oID}, reqF, servant.node.id)

	give := NewStub[bool, wire.Value](take.Handle(), "give")
	caller := take.Handle().node
	rootsBefore = caller.heap.NumRoots()
	fut, err := give.Call(true)
	if err != nil {
		t.Fatal(err)
	}
	<-fut.Done()
	check("reply", view(caller.root, repF, rootsBefore), []ids.ActivityID{servant.id, tID, oID}, repF, caller.id)
	if _, err := fut.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestOwnershipDirectoryRelay: a call to an identity its node does not
// know takes the directory relay, whose shard query runs after the call
// returned. The caller overwrites its slice while the query is held; the
// relayed request still arrives with the original bytes.
func TestOwnershipDirectoryRelay(t *testing.T) {
	ownershipEnvs(t, func(t *testing.T, e *Env, local bool) {
		want := pattern(4096)
		caller := e.NewNode()
		home := caller // the node the stale identity names
		if !local {
			home = e.NewNode()
		}
		shard := e.NewNode()
		live := shard.NewActive("moved", NewService(
			Method("check", func(_ *Context, req ownedReq) (bool, error) {
				return bytes.Equal(req.Payload, want), nil
			})))
		t.Cleanup(live.Release)
		// A stale identity on home whose directory shard is the node the
		// activity lives on; only that shard knows where it went.
		stale := ids.ActivityID{Node: home.ID(), Seq: 1 << 20}
		for owner, _ := e.ring.Load().Owner(stale); owner != shard.ID(); owner, _ = e.ring.Load().Owner(stale) {
			stale.Seq++
		}
		shard.addRebind(stale, mustRef(t, live.Ref()))
		h, err := caller.HandleFor(wire.Ref(stale))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Release)
		stub := NewStub[ownedReq, bool](h, "check")

		// Holding the shard node's lock holds its answer to the query.
		shard.mu.Lock()
		buf := bytes.Clone(want)
		fut, err := stub.Call(ownedReq{Payload: buf})
		for i := range buf {
			buf[i] = 0
		}
		shard.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if same, err := fut.Wait(10 * time.Second); err != nil || !same {
			t.Fatalf("relayed request saw the original bytes: %v, %v", same, err)
		}
	})
}
