//go:build !race

package location

// Complexity guard for Cache.Add: the eager re-point walk it once ended
// with made an insert cost O(table). Timing ratios mean nothing under the
// race detector, hence the build tag.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
)

// fullCache returns a table of the given capacity, full, so that every
// further Add of a fresh key evicts.
func fullCache(size int) *Cache {
	c := NewCache(size)
	for i := 0; i < size; i++ {
		c.Add(aid(1, uint32(i+1)), aid(2, uint32(i+1)))
	}
	return c
}

// addFresh times n Adds of fresh keys; from keeps keys fresh across calls.
func addFresh(c *Cache, from, n int) time.Duration {
	start := time.Now()
	for i := from; i < from+n; i++ {
		c.Add(ids.ActivityID{Node: 3, Seq: uint32(i + 1)}, ids.ActivityID{Node: 4, Seq: uint32(i + 1)})
	}
	return time.Since(start)
}

func BenchmarkCacheAdd(b *testing.B) {
	for _, size := range []int{256, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			c := fullCache(size)
			b.ResetTimer()
			addFresh(c, 0, b.N)
		})
	}
}

// TestCacheAddCostIndependentOfSize: an Add into a full table of 4096
// costs at most 4x an Add into one of 256 (a walk would cost 16x). Each
// side is the fastest of several batches, so a descheduled batch cannot
// fail the test.
func TestCacheAddCostIndependentOfSize(t *testing.T) {
	const batch, batches = 20000, 7
	perOp := func(size int) float64 {
		c := fullCache(size)
		best := time.Duration(1 << 62)
		for i := 0; i < batches; i++ {
			best = min(best, addFresh(c, i*batch, batch))
		}
		return float64(best.Nanoseconds()) / batch
	}
	small, large := perOp(256), perOp(4096)
	t.Logf("Cache.Add: %.0f ns at 256 entries, %.0f ns at 4096", small, large)
	if large > 4*small {
		t.Fatalf("Cache.Add costs %.0f ns at 4096 entries against %.0f ns at 256: it grows with the table", large, small)
	}
}
