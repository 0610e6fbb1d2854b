//go:build !race

package localgc

// Complexity guard for RebindStubs: it once scanned every cell of every
// shard; the pin table finds the pins to rebind through its target index. Timing ratios mean nothing under the race detector, hence the
// build tag.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
)

// stubHeap returns a heap of cells stub pins, one target each, spread
// over 256 owners (so over every shard).
func stubHeap(cells int) *Heap {
	h := New(nil)
	for i := 0; i < cells; i++ {
		h.NewStub(ids.ActivityID{Node: 1, Seq: uint32(i%256 + 1)}, ids.ActivityID{Node: 2, Seq: uint32(i + 1)})
	}
	return h
}

// rebindRound rebinds the first n stubs of h, one call each, from the
// identity on node from to the same sequence number on node to.
func rebindRound(h *Heap, n int, from, to ids.NodeID) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		h.RebindStubs(ids.ActivityID{Node: from, Seq: uint32(i + 1)}, ids.ActivityID{Node: to, Seq: uint32(i + 1)})
	}
	return time.Since(start)
}

func BenchmarkRebindStubs(b *testing.B) {
	for _, cells := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			h := stubHeap(cells)
			b.ResetTimer()
			for done := 0; done < b.N; done += 1024 {
				from, to := ids.NodeID(2), ids.NodeID(3)
				if done/1024%2 == 1 {
					from, to = to, from
				}
				rebindRound(h, min(1024, b.N-done), from, to)
			}
		})
	}
}

// TestRebindStubsCostIndependentOfHeapSize: rebinding one stub in a heap
// of 16k pins costs at most 4x what it costs in a heap of 1k (a scan
// would cost 16x). Each side is the fastest of several rounds.
func TestRebindStubsCostIndependentOfHeapSize(t *testing.T) {
	const n, rounds = 1024, 8
	perOp := func(cells int) float64 {
		h := stubHeap(cells)
		best := time.Duration(1 << 62)
		for r := 0; r < rounds; r++ {
			from, to := ids.NodeID(2), ids.NodeID(3)
			if r%2 == 1 {
				from, to = to, from
			}
			best = min(best, rebindRound(h, n, from, to))
		}
		return float64(best.Nanoseconds()) / n
	}
	small, large := perOp(1024), perOp(16384)
	t.Logf("RebindStubs: %.0f ns in 1k cells, %.0f ns in 16k", small, large)
	if large > 4*small {
		t.Fatalf("RebindStubs costs %.0f ns in 16k cells against %.0f ns in 1k: it grows with the heap", large, small)
	}
}
