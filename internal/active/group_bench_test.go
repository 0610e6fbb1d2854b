package active

import (
	"fmt"
	"testing"
)

// benchGroup builds a 1024-member echo group spread over 16 nodes with
// every handle anchored at a separate root node, so every member is a
// remote send from the root.
func benchGroup(b *testing.B) (*Env, *Group[int64, int64]) {
	b.Helper()
	env := NewEnv(Config{DisableDGC: true})
	root := env.NewNode()
	svc := NewService(Method("double", func(_ *Context, v int64) (int64, error) {
		return v * 2, nil
	}))
	var anchored []*Handle
	for n := 0; n < 16; n++ {
		node := env.NewNode()
		for a := 0; a < 64; a++ {
			h := node.NewActive(fmt.Sprintf("m-%d-%d", n, a), svc)
			r, err := root.HandleFor(h.Ref())
			if err != nil {
				b.Fatal(err)
			}
			anchored = append(anchored, r)
		}
	}
	return env, NewGroup[int64, int64]("double", anchored...)
}

// BenchmarkGroupBroadcast1024Tree measures one full broadcast+gather
// round over the tree fan-out path (WIRE.md §10).
func BenchmarkGroupBroadcast1024Tree(b *testing.B) {
	env, g := benchGroup(b)
	defer env.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg, err := g.Broadcast(21)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fg.WaitAll(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupBroadcast1024Flat is the flat baseline the tree is
// measured against: the same round as 1024 single-member calls, so the
// root sends all 1024 requests and receives all 1024 updates itself.
func BenchmarkGroupBroadcast1024Flat(b *testing.B) {
	env, g := benchGroup(b)
	defer env.Close()
	stubs := make([]Stub[int64, int64], g.Size())
	for i := range stubs {
		stubs[i] = g.Stub(i)
	}
	futs := make([]*TypedFuture[int64], len(stubs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range stubs {
			f, err := s.Call(21)
			if err != nil {
				b.Fatal(err)
			}
			futs[j] = f
		}
		for _, f := range futs {
			if _, err := f.Wait(0); err != nil {
				b.Fatal(err)
			}
		}
	}
}
