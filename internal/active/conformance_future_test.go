package active

// Cross-backend conformance for first-class futures (paper §5–§6): a
// future created on one node threads through two intermediary activities
// on two other nodes and resolves only at the final holder — no
// intermediary ever waits — over both transport substrates, for both the
// value and the remote-failure outcome.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// fwdStart is the client → head request: just a flag selecting the
// failure variant.
type fwdStart struct {
	Fail bool `wire:"fail"`
}

// fwdHop carries the forwarded future between intermediaries. The sender
// side marshals a live *TypedFuture; the receiving side sees the wire
// future value verbatim.
type fwdHop struct {
	Fut wire.Value `wire:"fut"`
}

// forwardedFutureWorld wires the scenario:
//
//	client ── start ──► head(n1) ── producer.compute(n3) = future F
//	                      │ forwards F (never waits)
//	                      ▼
//	                    relay(n2) ── forwards F (never waits)
//	                      ▼
//	                    sink(n3) ── ctx.Future(F).Wait  ◄─ F resolves here
//
// The gate blocks the producer so the test can assert F is still
// unresolved after it has traveled the whole chain; the sink reports
// through a closure atomic because its own serve loop is (by design)
// blocked in wait-by-necessity until the gate opens.
func forwardedFutureWorld(t *testing.T, e *Env) (start Stub[fwdStart, string], result *atomic.Value, closeGate func(), intermediaryWaits *atomic.Int32) {
	t.Helper()
	n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()
	gate := make(chan struct{})
	var gateOnce sync.Once
	closeGate = func() { gateOnce.Do(func() { close(gate) }) }
	// The producer must be unblocked even if the test fails early, or the
	// env teardown would wait forever on its serve goroutine (cleanups run
	// LIFO: this fires before forEachSubstrate's Env.Close).
	t.Cleanup(closeGate)
	result = new(atomic.Value)
	intermediaryWaits = new(atomic.Int32)

	producer := n3.NewActive("producer", NewService(
		Method("compute", func(_ *Context, req fwdStart) (int64, error) {
			<-gate
			if req.Fail {
				return 0, errors.New("planned failure")
			}
			return 42, nil
		})))
	t.Cleanup(producer.Release)

	sinkSvc := NewService(
		Method("consume", func(ctx *Context, req fwdHop) (struct{}, error) {
			// The final holder: true wait-by-necessity happens here and
			// only here.
			fut, err := FutureFor[int64](ctx, req.Fut)
			if err != nil {
				return struct{}{}, err
			}
			v, err := fut.Wait(0)
			if err != nil {
				result.Store("error:" + err.Error())
				return struct{}{}, nil
			}
			ctx.Store("got", wire.Int(v))
			result.Store(fmt.Sprintf("%d", v))
			return struct{}{}, nil
		}))
	sink := n3.NewActive("sink", sinkSvc)
	t.Cleanup(sink.Release)

	relay := n2.NewActive("relay", NewService(
		Method("hop", func(ctx *Context, req fwdHop) (struct{}, error) {
			// Forward the (still unresolved) future one more hop; waiting
			// here would be a conformance failure.
			if _, _, ok := mustFuture(ctx, req.Fut).TryGet(); ok {
				intermediaryWaits.Add(1)
			}
			target, err := ctx.Lookup("sink")
			if err != nil {
				return struct{}{}, err
			}
			return struct{}{}, SendTyped(ctx, target, "consume", fwdHop{Fut: req.Fut})
		})))
	t.Cleanup(relay.Release)

	head := n1.NewActive("head", NewService(
		Method("start", func(ctx *Context, req fwdStart) (string, error) {
			target, err := ctx.Lookup("producer")
			if err != nil {
				return "", err
			}
			fut, err := CallTyped[int64](ctx, target, "compute", req)
			if err != nil {
				return "", err
			}
			relayRef, err := ctx.Lookup("relay")
			if err != nil {
				return "", err
			}
			// The future travels as a call argument while unresolved; the
			// head returns immediately (zero waits at this hop).
			if err := SendTyped(ctx, relayRef, "hop", struct {
				Fut *TypedFuture[int64] `wire:"fut"`
			}{Fut: fut}); err != nil {
				return "", err
			}
			return "started", nil
		})))
	t.Cleanup(head.Release)

	for name, h := range map[string]*Handle{"producer": producer, "relay": relay, "sink": sink} {
		if err := e.RegisterName(name, h.Ref()); err != nil {
			t.Fatal(err)
		}
	}
	return NewStub[fwdStart, string](head, "start"), result, closeGate, intermediaryWaits
}

// mustFuture is a test helper: lift or die trying.
func mustFuture(ctx *Context, v wire.Value) *Future {
	f, err := ctx.Future(v)
	if err != nil {
		panic(err)
	}
	return f
}

// awaitResult polls the sink's report until it reports a terminal state.
func awaitResult(t *testing.T, result *atomic.Value, deadline time.Duration) string {
	t.Helper()
	var got string
	waitUntil(t, func() bool {
		v, ok := result.Load().(string)
		if ok {
			got = v
		}
		return ok
	}, deadline)
	return got
}

func TestConformanceForwardedFutureChain(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		start, result, closeGate, waits := forwardedFutureWorld(t, e)
		got, err := start.CallSync(fwdStart{}, 10*time.Second)
		if err != nil || got != "started" {
			t.Fatalf("start = %q, %v", got, err)
		}
		// The future has traveled head → relay → sink while the producer
		// is still blocked: nothing may resolve until the gate opens.
		holdsFor(t, func() bool {
			_, ok := result.Load().(string)
			return !ok
		}, 100*time.Millisecond)
		closeGate()
		if got := awaitResult(t, result, 10*time.Second); got != "42" {
			t.Fatalf("final holder saw %q, want 42", got)
		}
		if waits.Load() != 0 {
			t.Fatalf("an intermediary observed a resolved future mid-chain (%d)", waits.Load())
		}
	})
}

func TestConformanceForwardedFutureFailure(t *testing.T) {
	forEachSubstrate(t, func(t *testing.T, e *Env) {
		start, result, closeGate, _ := forwardedFutureWorld(t, e)
		if _, err := start.CallSync(fwdStart{Fail: true}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		closeGate()
		got := awaitResult(t, result, 10*time.Second)
		if !strings.HasPrefix(got, "error:") || !strings.Contains(got, "planned failure") {
			t.Fatalf("final holder saw %q, want the propagated remote failure", got)
		}
	})
}

// TestConformanceFutureParityFIFO pins two invariants of the redesign on
// both substrates: (1) a program that does not forward futures and uses
// the default service policy produces byte-identical wire traffic whether
// the policy is left nil or set to the explicit FIFO built-in (the lift
// of requestQueue behind ServicePolicy is wire-invisible); (2) the
// request/future byte counters of such a program are unchanged by the
// first-class-future machinery (no registration traffic without
// forwarding).
func TestConformanceFutureParityFIFO(t *testing.T) {
	run := func(t *testing.T, mkCfg func(t *testing.T) Config, policy ServicePolicy) transport.Counters {
		cfg := mkCfg(t)
		cfg.DisableDGC = true // beats are timing-dependent; parity needs determinism
		e := NewEnv(cfg)
		defer e.Close()
		n1, n2 := e.NewNode(), e.NewNode()
		h := n2.NewActive("svc", relay{}, WithPolicy(policy))
		defer h.Release()
		h1, err := n1.HandleFor(h.Ref())
		if err != nil {
			t.Fatal(err)
		}
		defer h1.Release()
		for i := 0; i < 20; i++ {
			if _, err := h1.CallSync("echo", wire.String("parity"), 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := h1.Send("set:k", wire.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := h1.CallSync("get:k", wire.Null(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		return e.Network().Snapshot()
	}
	for _, s := range substrates {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			base := run(t, s.cfg, nil)
			fifo := run(t, s.cfg, FIFO())
			for _, class := range []transport.Class{transport.ClassApp, transport.ClassFuture} {
				if base.Bytes[class] != fifo.Bytes[class] || base.Messages[class] != fifo.Messages[class] {
					t.Fatalf("%v traffic diverged: nil policy %d B/%d msgs, FIFO %d B/%d msgs",
						class, base.Bytes[class], base.Messages[class], fifo.Bytes[class], fifo.Messages[class])
				}
			}
		})
	}
}
