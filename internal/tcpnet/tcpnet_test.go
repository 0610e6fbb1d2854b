package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// recorder is a test handler recording deliveries.
type recorder struct {
	mu     sync.Mutex
	oneWay []string
	calls  []string
	reply  []byte
}

func (r *recorder) HandleOneWay(from ids.NodeID, class transport.Class, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.oneWay = append(r.oneWay, fmt.Sprintf("%v/%v/%s", from, class, payload))
}

func (r *recorder) HandleCall(from ids.NodeID, class transport.Class, payload []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, fmt.Sprintf("%v/%v/%s", from, class, payload))
	return r.reply
}

func (r *recorder) received() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.oneWay...)
}

func newNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := frame{
		typ:     frameCall,
		class:   transport.ClassDGC,
		flags:   flagUnknownNode,
		src:     7,
		dst:     9,
		seq:     1 << 40,
		payload: []byte("hello"),
	}
	var buf bytes.Buffer
	buf.Write(appendFrame(nil, in))
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.typ != in.typ || out.class != in.class || out.flags != in.flags ||
		out.src != in.src || out.dst != in.dst || out.seq != in.seq ||
		string(out.payload) != string(in.payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// A huge declared length must not allocate/hang.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("want error on oversized frame")
	}
	// Unknown frame type.
	bad := appendFrame(nil, frame{typ: 99, src: 1, dst: 2})
	if _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("want error on bad frame type")
	}
}

func TestOneWayDeliveryAndFIFO(t *testing.T) {
	n := newNet(t, Config{})
	var rec recorder
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	const total = 200
	for i := 0; i < total; i++ {
		if err := ep.Send(2, transport.ClassApp, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(rec.received()) == total })
	got := rec.received()
	for i, s := range got {
		want := fmt.Sprintf("node-1/app/m%03d", i)
		if s != want {
			t.Fatalf("delivery %d = %q, want %q (FIFO violated)", i, s, want)
		}
	}
}

func TestCallRoundTrip(t *testing.T) {
	n := newNet(t, Config{})
	rec := recorder{reply: []byte("pong")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	resp, err := ep.Call(2, transport.ClassDGC, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "pong" {
		t.Fatalf("resp = %q, want pong", resp)
	}
}

func TestCallDoesNotRaceOneWays(t *testing.T) {
	// A call and later one-ways from the same source: the one-ways must
	// not be delivered before the call's handler ran (§3.2 FIFO).
	n := newNet(t, Config{})
	rec := recorder{reply: []byte("r")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	done := make(chan error, 1)
	go func() {
		_, err := ep.Call(2, transport.ClassDGC, []byte("first"))
		done <- err
	}()
	// Wait until the call frame is in flight, then send a one-way.
	waitFor(t, func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.calls) == 1
	})
	if err := ep.Send(2, transport.ClassApp, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.received()) == 1 })
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.calls) != 1 || rec.oneWay[0] != "node-1/app/second" {
		t.Fatalf("order violated: calls=%v oneWay=%v", rec.calls, rec.oneWay)
	}
}

func TestResponseRidesCallersConnection(t *testing.T) {
	// Two processes: the callee's learns the caller's address from the
	// hello, yet answers a call 1 -> 2 over the caller's own connection
	// and never dials back (§2.2: the referenced side needs no
	// connectivity to its referencers).
	caller := newNet(t, Config{})
	callee := newNet(t, Config{})
	callee.Register(2, &recorder{reply: []byte("through")})
	ep1 := caller.Register(1, &recorder{})
	caller.AddPeer(2, callee.Addr())
	resp, err := ep1.Call(2, transport.ClassDGC, []byte("in"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "through" {
		t.Fatalf("resp = %q", resp)
	}
	callee.mu.Lock()
	defer callee.mu.Unlock()
	if len(callee.conns) != 0 {
		t.Fatalf("callee opened %d outbound connections, want 0", len(callee.conns))
	}
}

func TestUnknownNodeAndClosed(t *testing.T) {
	n := newNet(t, Config{})
	ep := n.Register(1, &recorder{})
	if err := ep.Send(99, transport.ClassApp, nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if _, err := ep.Call(99, transport.ClassApp, nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	n.Register(2, &recorder{})
	n.Close()
	if err := ep.Send(2, transport.ClassApp, nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err after close = %v, want ErrClosed", err)
	}
}

func TestDeregisterMakesNodeUnknown(t *testing.T) {
	n := newNet(t, Config{})
	rec := recorder{reply: []byte("r")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	if _, err := ep.Call(2, transport.ClassDGC, []byte("m")); err != nil {
		t.Fatal(err)
	}
	n.Deregister(2)
	if _, err := ep.Call(2, transport.ClassDGC, nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("Call after Deregister = %v, want ErrUnknownNode", err)
	}
}

func TestAccountingPerClass(t *testing.T) {
	n := newNet(t, Config{})
	rec := recorder{reply: []byte("12345678")}
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	if err := ep.Send(2, transport.ClassApp, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call(2, transport.ClassDGC, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	// Intra-node traffic is never accounted.
	if err := ep.Send(1, transport.ClassApp, []byte("local")); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if snap.Bytes[transport.ClassApp] != 4 || snap.Messages[transport.ClassApp] != 1 {
		t.Fatalf("app = %d bytes / %d msgs, want 4 / 1",
			snap.Bytes[transport.ClassApp], snap.Messages[transport.ClassApp])
	}
	// A call accounts request and response at the caller: 2 + 8 bytes.
	if snap.Bytes[transport.ClassDGC] != 10 || snap.Messages[transport.ClassDGC] != 2 {
		t.Fatalf("dgc = %d bytes / %d msgs, want 10 / 2",
			snap.Bytes[transport.ClassDGC], snap.Messages[transport.ClassDGC])
	}
	n.ResetCounters()
	if n.Snapshot().Total() != 0 {
		t.Fatal("ResetCounters did not zero")
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	// Many goroutines calling over the same pair connection: every caller
	// must get its own response back (sequence-number multiplexing).
	n := newNet(t, Config{})
	echo := handlerFunc(func(_ ids.NodeID, _ transport.Class, payload []byte) []byte {
		return append([]byte("re:"), payload...)
	})
	n.Register(2, echo)
	ep := n.Register(1, &recorder{})
	const callers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers*per)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := fmt.Sprintf("c%d-%d", g, i)
				resp, err := ep.Call(2, transport.ClassApp, []byte(req))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != "re:"+req {
					errs <- fmt.Errorf("resp %q for req %q", resp, req)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// handlerFunc adapts a call function to transport.Handler.
type handlerFunc func(from ids.NodeID, class transport.Class, payload []byte) []byte

func (f handlerFunc) HandleOneWay(from ids.NodeID, class transport.Class, payload []byte) {
	f(from, class, payload)
}
func (f handlerFunc) HandleCall(from ids.NodeID, class transport.Class, payload []byte) []byte {
	return f(from, class, payload)
}

func TestTwoProcesses(t *testing.T) {
	// Two Network instances = two processes, wired by AddPeer.
	server := newNet(t, Config{})
	rec := recorder{reply: []byte("remote-pong")}
	server.Register(10, &rec)

	client := newNet(t, Config{})
	client.AddPeer(10, server.Addr())
	ep := client.Register(1, &recorder{})

	resp, err := ep.Call(10, transport.ClassApp, []byte("remote-ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "remote-pong" {
		t.Fatalf("resp = %q", resp)
	}
	if err := ep.Send(10, transport.ClassFuture, []byte("bye")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.received()) == 1 })

	// The server process deregisters the node: remote calls now fail with
	// the unknown-node response flag.
	server.Deregister(10)
	if _, err := ep.Call(10, transport.ClassApp, nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestReconnectAfterConnDrop(t *testing.T) {
	n := newNet(t, Config{})
	var rec recorder
	n.Register(2, &rec)
	ep := n.Register(1, &recorder{})
	if err := ep.Send(2, transport.ClassApp, []byte("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.received()) == 1 })

	// Kill the pooled outbound connection under the endpoint.
	n.mu.Lock()
	cc := n.conns[pairKey{src: 1, dst: 2}]
	n.mu.Unlock()
	if cc == nil {
		t.Fatal("no pooled connection")
	}
	_ = cc.c.Close()

	// The next send must transparently re-dial.
	if err := ep.Send(2, transport.ClassApp, []byte("b")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.received()) == 2 })
	n.mu.Lock()
	fresh := n.conns[pairKey{src: 1, dst: 2}]
	n.mu.Unlock()
	if fresh == cc {
		t.Fatal("connection was not replaced")
	}
}

func TestCallTimeoutUnwedgesCaller(t *testing.T) {
	// A handler that never answers stands in for a hung peer: the call
	// must fail with ErrCallTimeout instead of blocking forever.
	n := newNet(t, Config{CallTimeout: 50 * time.Millisecond})
	block := make(chan struct{})
	defer close(block)
	stuck := handlerFunc(func(_ ids.NodeID, _ transport.Class, _ []byte) []byte {
		<-block
		return nil
	})
	n.Register(2, stuck)
	ep := n.Register(1, &recorder{})
	start := time.Now()
	_, err := ep.Call(2, transport.ClassDGC, []byte("x"))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout did not bound the call")
	}
}

func TestOversizedPayloadRejectedAtSender(t *testing.T) {
	n := newNet(t, Config{})
	n.Register(2, &recorder{})
	ep := n.Register(1, &recorder{})
	huge := make([]byte, maxPayloadSize+1)
	if err := ep.Send(2, transport.ClassApp, huge); err == nil {
		t.Fatal("oversized Send must fail at the sender")
	}
	if _, err := ep.Call(2, transport.ClassApp, huge); err == nil {
		t.Fatal("oversized Call must fail at the sender")
	}
	if n.Snapshot().Total() != 0 {
		t.Fatal("rejected payloads must not be accounted")
	}
	// The connection (if any) must stay usable for sane payloads.
	if err := ep.Send(2, transport.ClassApp, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownNodeCallNotAccounted(t *testing.T) {
	// A call answered with the unknown-node flag must leave the counters
	// as simnet would: untouched.
	server := newNet(t, Config{})
	client := newNet(t, Config{})
	client.AddPeer(10, server.Addr())
	ep := client.Register(1, &recorder{})
	if _, err := ep.Call(10, transport.ClassDGC, []byte("beat")); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if got := client.Snapshot().Total(); got != 0 {
		t.Fatalf("accounted %d bytes for an unknown-node call, want 0", got)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	n := newNet(t, Config{})
	block := make(chan struct{})
	slow := handlerFunc(func(_ ids.NodeID, _ transport.Class, _ []byte) []byte {
		<-block
		return nil
	})
	n.Register(2, slow)
	ep := n.Register(1, &recorder{})
	done := make(chan error, 1)
	go func() {
		_, err := ep.Call(2, transport.ClassDGC, []byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call get in flight
	close(block)
	n.Close()
	if err := <-done; err != nil {
		// Either outcome is legal: the response won the race, or the
		// close failed the call. A hang is the only failure mode.
		t.Logf("pending call failed with: %v", err)
	}
}

func TestRemovePeerForgetsAddressAndFailsConns(t *testing.T) {
	server := newNet(t, Config{})
	rec := recorder{reply: []byte("pong")}
	server.Register(10, &rec)

	client := newNet(t, Config{})
	client.AddPeer(10, server.Addr())
	ep := client.Register(1, &recorder{})
	if _, err := ep.Call(10, transport.ClassApp, []byte("ping")); err != nil {
		t.Fatal(err)
	}

	client.RemovePeer(10)
	// The address book entry is gone: new traffic fails fast.
	if _, err := ep.Call(10, transport.ClassApp, nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("call after RemovePeer = %v, want ErrUnknownNode", err)
	}
	if err := ep.Send(10, transport.ClassApp, nil); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("send after RemovePeer = %v, want ErrUnknownNode", err)
	}
	// The pooled per-pair connection state was torn down with the entry.
	client.mu.Lock()
	_, pooled := client.conns[pairKey{src: 1, dst: 10}]
	client.mu.Unlock()
	if pooled {
		t.Fatal("pooled connection survived RemovePeer")
	}

	// Re-adding the peer restores the route with a fresh dial.
	client.AddPeer(10, server.Addr())
	if _, err := ep.Call(10, transport.ClassApp, []byte("again")); err != nil {
		t.Fatalf("call after re-AddPeer: %v", err)
	}
}

func TestHelloTeachesDialBackAddress(t *testing.T) {
	// B knows nothing about A's address up front: the hello frame on A's
	// first connection must teach B how to dial node 1 back.
	a := newNet(t, Config{})
	recA := recorder{reply: []byte("a-pong")}

	b := newNet(t, Config{})
	recB := recorder{reply: []byte("b-pong")}
	b.Register(2, &recB)

	a.AddPeer(2, b.Addr())
	epA := a.Register(1, &recA)
	if _, err := epA.Call(2, transport.ClassApp, []byte("hi")); err != nil {
		t.Fatal(err)
	}

	// B never ran AddPeer for node 1, yet the return path works: the
	// hello on A's connection taught B node 1's dial-back address.
	epB := b.Register(2, &recB)
	resp, err := epB.Call(1, transport.ClassApp, []byte("back"))
	if err != nil {
		t.Fatalf("dial-back call failed: %v (hello not applied?)", err)
	}
	if string(resp) != "a-pong" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestCallAddrReachesProcessHandler(t *testing.T) {
	server := newNet(t, Config{})
	client := newNet(t, Config{})

	// No process handler installed yet: the exchange is answered with the
	// unknown-node flag.
	if _, err := client.CallAddr(server.Addr(), transport.ClassCluster, []byte("join")); !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("CallAddr without handler = %v, want ErrUnknownNode", err)
	}

	server.SetProcessHandler(handlerFunc(func(from ids.NodeID, class transport.Class, payload []byte) []byte {
		if from != 0 || class != transport.ClassCluster {
			t.Errorf("process call from=%v class=%v", from, class)
		}
		return append([]byte("ok:"), payload...)
	}))
	resp, err := client.CallAddr(server.Addr(), transport.ClassCluster, []byte("join"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok:join" {
		t.Fatalf("resp = %q", resp)
	}
}
