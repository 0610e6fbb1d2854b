package active

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestForwardedFutureRingCollected mirrors the pipeline example: a
// 4-stage forwarded-future chain with a feedback ring, which must be
// reclaimed after the client departs.
func TestForwardedFutureRingCollected(t *testing.T) {
	e := testEnv(t)
	const stages = 4
	svc := func(name string) *Service {
		return NewService(
			Method("wire", func(ctx *Context, req struct {
				Next wire.Value `wire:"next"`
				Last bool       `wire:"last"`
			}) (struct{}, error) {
				ctx.Store("next", req.Next)
				ctx.Store("last", wire.Bool(req.Last))
				return struct{}{}, nil
			}),
			Method("process", func(ctx *Context, payload string) (*TypedFuture[string], error) {
				payload += "→" + name
				if ctx.Load("last").AsBool() {
					if err := SendTyped(ctx, ctx.Load("next"), "fed-back", struct{}{}); err != nil {
						return nil, err
					}
					return CallTyped[string](ctx, ctx.Self(), "finish", payload)
				}
				return CallTyped[string](ctx, ctx.Load("next"), "process", payload)
			}),
			Method("finish", func(ctx *Context, payload string) (string, error) {
				return payload, nil
			}),
			Method("fed-back", func(ctx *Context, _ struct{}) (struct{}, error) {
				return struct{}{}, nil
			}),
		)
	}
	handles := make([]*Handle, stages)
	nodes := make([]*Node, stages)
	for i := range handles {
		nodes[i] = e.NewNode()
		handles[i] = nodes[i].NewActive(fmt.Sprintf("stage-%d", i), svc(fmt.Sprintf("s%d", i)))
	}
	for i, h := range handles {
		if _, err := NewStub[struct {
			Next wire.Value `wire:"next"`
			Last bool       `wire:"last"`
		}, struct{}](h, "wire").CallSync(struct {
			Next wire.Value `wire:"next"`
			Last bool       `wire:"last"`
		}{Next: handles[(i+1)%stages].Ref(), Last: i == stages-1}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	process := NewStub[string, string](handles[0], "process")
	for i := 0; i < 3; i++ {
		out, err := process.CallSync(fmt.Sprintf("item%d", i), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if out != fmt.Sprintf("item%d→s0→s1→s2→s3", i) {
			t.Fatalf("out = %q", out)
		}
	}
	for _, h := range handles {
		h.Release()
	}
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		for _, n := range nodes {
			for _, ao := range n.snapshotActivities() {
				t.Logf("live %v name=%s idle=%v pending=%d referenced=%v referencedBy/collector=%v",
					ao.ID(), ao.Name(), ao.isIdle(), ao.queue.pendingCount(),
					ao.collector.Referenced(), ao.collector)
			}
			t.Logf("node %v futures=%d heap=%v", n.ID(), n.futures.size(), n.heap)
		}
		t.Fatal(err)
	}
}
