//go:build !race

package repro_test

// Alloc-regression gates for the end-to-end messaging hot paths: the
// whole-process allocation bill of one operation (caller marshal, wire
// encode, queue, serve, reply, future resolution) must not creep. The
// budgets sit just above the measured steady state; excluded under the
// race detector, whose instrumentation changes allocation behavior.

import (
	"testing"
	"time"

	"repro"
)

// TestAllocsTypedCallRoundTrip gates the intra-node synchronous typed
// call: the full round trip currently bills ~12 allocations across both
// goroutines (request marshal, queue entry, future, reply marshal); the
// budget leaves slack only for scheduling jitter, not for a lost fast
// path.
func TestAllocsTypedCallRoundTrip(t *testing.T) {
	env := repro.NewEnv(repro.Config{DisableDGC: true})
	defer env.Close()
	h := env.NewNode().NewActive("alloc-call", repro.NewService(
		repro.Method("add", func(ctx *repro.Context, req benchReq) (benchResp, error) {
			return benchResp{Sum: req.A + req.B, Tag: req.Tag}, nil
		})))
	defer h.Release()
	stub := repro.NewStub[benchReq, benchResp](h, "add")
	req := benchReq{A: 19, B: 23, Tag: "bench"}
	call := func() {
		resp, err := stub.CallSync(req, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Sum != 42 {
			t.Fatalf("sum = %d", resp.Sum)
		}
	}
	call() // warm the plan cache and serve loop
	if got := testing.AllocsPerRun(200, call); got > 16 {
		t.Errorf("typed call round trip: %.1f allocs/op, budget 16", got)
	}
}

// TestAllocsCrossNodeCallRoundTrip gates the same call between two nodes
// over simnet, where request and reply are each sized, encoded, decoded
// and accounted. Sizing is a walk (wire.EncodedSize); a scratch encode to
// size the buffer would put back three allocations per message.
func TestAllocsCrossNodeCallRoundTrip(t *testing.T) {
	env := repro.NewEnv(repro.Config{DisableDGC: true})
	defer env.Close()
	caller, callee := env.NewNode(), env.NewNode()
	h := callee.NewActive("alloc-xnode", repro.NewService(
		repro.Method("add", func(ctx *repro.Context, req benchReq) (benchResp, error) {
			return benchResp{Sum: req.A + req.B, Tag: req.Tag}, nil
		})))
	defer h.Release()
	hc, err := caller.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Release()
	stub := repro.NewStub[benchReq, benchResp](hc, "add")
	req := benchReq{A: 19, B: 23, Tag: "bench"}
	call := func() {
		resp, err := stub.CallSync(req, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Sum != 42 {
			t.Fatalf("sum = %d", resp.Sum)
		}
	}
	call()
	if got := testing.AllocsPerRun(200, call); got > 27 { // measured 26 (32 with the scratch encode)
		t.Errorf("cross-node typed call round trip: %.1f allocs/op, budget 27", got)
	}
}

// TestAllocsOneWaySend gates the fire-and-forget send: marshal plus
// enqueue, no future, no reply. This is the per-message bill of the
// sends-1m-local loadgen scenario.
func TestAllocsOneWaySend(t *testing.T) {
	env := repro.NewEnv(repro.Config{DisableDGC: true})
	defer env.Close()
	h := env.NewNode().NewActive("alloc-send", repro.NewService(
		repro.Method("bump", func(ctx *repro.Context, v int64) (int64, error) {
			return v + 1, nil
		})))
	defer h.Release()
	stub := repro.NewStub[int64, int64](h, "bump")
	send := func() {
		if err := stub.Send(7); err != nil {
			t.Fatal(err)
		}
	}
	send()
	got := testing.AllocsPerRun(200, send)
	// Drain the queued one-ways before judging, so a failure message is
	// not followed by a noisy teardown.
	if _, err := stub.CallSync(0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got > 8 {
		t.Errorf("one-way send: %.1f allocs/op, budget 8", got)
	}
}
