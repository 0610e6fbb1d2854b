//go:build !race

package repro_test

// Alloc-regression gates for the end-to-end messaging hot paths: the
// whole-process allocation bill of one operation (caller marshal, wire
// encode, queue, serve, reply, future resolution) must not creep. The
// budgets sit just above the measured steady state; excluded under the
// race detector, whose instrumentation changes allocation behavior.

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro"
)

// TestAllocsTypedCallRoundTrip gates the intra-node synchronous typed
// call: the full round trip bills 12 allocations across both goroutines
// (request marshal, queue entry, future, reply marshal, ...); the budget
// is that plus one.
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
	got := testing.AllocsPerRun(200, call)
	t.Logf("typed call round trip: %.1f allocs/op", got)
	if got > 13 {
		t.Errorf("typed call round trip: %.1f allocs/op, budget 13", got)
	}
}

// TestAllocsDynamicCallRoundTrip gates the same call through the dynamic
// surface, Dict-built dicts both ways (BenchmarkDynamicCall): Dict sorts
// each into its keys and values once, and each is expanded once at the
// dynamic boundary, 15 allocations in all; the budget is that plus one.
// Its bytes are gated too, as the 4 KiB byte budgets below measure them:
// about 1.6 KiB a round trip, under a budget of 2 KiB (2.6 KiB while a
// Dict kept a Go map, and while a Value carried a word for it).
func TestAllocsDynamicCallRoundTrip(t *testing.T) {
	env := repro.NewEnv(repro.Config{DisableDGC: true})
	defer env.Close()
	h := env.NewNode().NewActive("alloc-dyn", repro.BehaviorFunc(
		func(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
			return repro.Dict(map[string]repro.Value{
				"sum": repro.Int(args.Get("a").AsInt() + args.Get("b").AsInt()),
				"tag": args.Get("tag"),
			}), nil
		}))
	defer h.Release()
	args := repro.Dict(map[string]repro.Value{
		"a": repro.Int(19), "b": repro.Int(23), "tag": repro.String("bench"),
	})
	call := func() {
		out, err := h.CallSync("add", args, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if out.Get("sum").AsInt() != 42 {
			t.Fatalf("sum = %v", out.Get("sum"))
		}
	}
	call()
	got := testing.AllocsPerRun(200, call)
	t.Logf("dynamic call round trip: %.1f allocs/op", got)
	if got > 16 {
		t.Errorf("dynamic call round trip: %.1f allocs/op, budget 16", got)
	}
	const runs, budget = 500, 2048
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("dynamic call round trip: %.0f B/op", perOp)
	if perOp > budget {
		t.Errorf("dynamic call round trip: %.0f B/op, budget %d", perOp, budget)
	}
}

// TestAllocsCrossNodeCallRoundTrip gates the same call between two nodes
// over simnet, where request and reply are each sized, encoded and
// accounted, and each arrives as an encoded-form dict that decodes
// straight into its struct (measured 21; 26 while every payload was
// decoded into a Value tree first). Sizing is a walk (wire.EncodedSize);
// a scratch encode to size the buffer would put back three allocations
// per message.
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
	got := testing.AllocsPerRun(200, call)
	t.Logf("cross-node typed call round trip: %.1f allocs/op", got)
	if got > 22 {
		t.Errorf("cross-node typed call round trip: %.1f allocs/op, budget 22", got)
	}
}

// payloadReq is the 4 KiB-payload request of the byte budgets.
type payloadReq struct {
	Seq     int64  `wire:"seq"`
	Payload []byte `wire:"payload"`
}

// TestAllocBytesPayloadCopies pins "one copy of a payload per hop" (WIRE.md
// §2, "Payload ownership") in allocated bytes: a typed call carrying a
// 4 KiB []byte allocates fewer than copies+1 payloads' worth per round
// trip — copies = 2 across nodes (the request's encoding, the receiver's
// copy out of the transport buffer), 1 within a node (the request's
// encoding, which the receiver takes over).
// The rest of the call's bill is well under one payload.
func TestAllocBytesPayloadCopies(t *testing.T) {
	const size = 4096
	payload := bytes.Repeat([]byte{0xa5}, size)
	for _, c := range []struct {
		name   string
		nodes  int
		copies int
	}{
		{"cross-node", 2, 2},
		{"intra-node", 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := repro.NewEnv(repro.Config{DisableDGC: true})
			defer env.Close()
			caller := env.NewNode()
			callee := caller
			if c.nodes == 2 {
				callee = env.NewNode()
			}
			h := callee.NewActive("alloc-bytes", repro.NewService(
				repro.Method("len", func(ctx *repro.Context, req payloadReq) (int64, error) {
					return int64(len(req.Payload)), nil
				})))
			defer h.Release()
			hc, err := caller.HandleFor(h.Ref())
			if err != nil {
				t.Fatal(err)
			}
			defer hc.Release()
			stub := repro.NewStub[payloadReq, int64](hc, "len")
			call := func() {
				if n, err := stub.CallSync(payloadReq{Seq: 1, Payload: payload}, 30*time.Second); err != nil || n != size {
					t.Fatalf("call = %d, %v", n, err)
				}
			}
			call()
			const runs = 500
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				call()
			}
			runtime.ReadMemStats(&after)
			perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%s 4 KiB typed call: %.0f B/op (%.2f payloads)", c.name, perOp, perOp/size)
			if budget := float64((c.copies + 1) * size); perOp >= budget {
				t.Errorf("%s 4 KiB typed call: %.0f B/op, budget < %.0f (%d payload copies)", c.name, perOp, budget, c.copies)
			}
		})
	}
}

// TestAllocsOneWaySend gates the fire-and-forget send: marshal plus
// enqueue, no future, no reply: the per-message bill of the one-way
// messaging floor that bench's active.send_ns ladder rung times.
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
	t.Logf("one-way send: %.1f allocs/op", got)
	// Drain the queued one-ways before judging, so a failure message is
	// not followed by a noisy teardown.
	if _, err := stub.CallSync(0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got > 2 {
		t.Errorf("one-way send: %.1f allocs/op, budget 2", got)
	}
}

// TestAllocsHandleForRelease gates the handle lifecycle. A handle is one
// rooted stub of its node's root referencer, so HandleFor + Release
// bills the Handle, the stub cell and its tag link (measured 3); the
// budget is that plus one. The beat is an hour away, so a released stub
// is never swept mid-measurement.
func TestAllocsHandleForRelease(t *testing.T) {
	env := repro.NewEnv(repro.Config{DisableDGC: true, TTB: time.Hour})
	defer env.Close()
	n := env.NewNode()
	h := n.NewActive("alloc-handle", repro.NewService(
		repro.Method("bump", func(ctx *repro.Context, v int64) (int64, error) {
			return v + 1, nil
		})))
	defer h.Release()
	ref := h.Ref()
	cycle := func() {
		hc, err := n.HandleFor(ref)
		if err != nil {
			t.Fatal(err)
		}
		hc.Release()
	}
	cycle()
	got := testing.AllocsPerRun(2000, cycle)
	t.Logf("HandleFor + Release: %.1f allocs/op", got)
	if got > 4 {
		t.Errorf("HandleFor + Release: %.1f allocs/op, budget 4", got)
	}
}
