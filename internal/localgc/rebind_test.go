package localgc

import (
	"math/rand"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

// checkIndex compares every shard's byTarget index with a full scan of
// its cells: the index must list exactly the stub and future-stub cells,
// each under the target it designates and at the slot it remembers.
func checkIndex(t *testing.T, h *Heap) {
	t.Helper()
	for i := range h.shards {
		s := &h.shards[i]
		stubs := 0
		for ref, c := range s.cells {
			if c.kind != kindStub && c.kind != kindFutureStub {
				continue
			}
			stubs++
			list := s.byTarget[c.target]
			if int(c.pos) >= len(list) || list[c.pos] != c {
				t.Fatalf("shard %d: stub %d of %v not at slot %d of %v", i, ref, c.target, c.pos, list)
			}
		}
		listed := 0
		for target, list := range s.byTarget {
			if len(list) == 0 {
				t.Fatalf("shard %d: empty list kept for %v", i, target)
			}
			listed += len(list)
		}
		if listed != stubs {
			t.Fatalf("shard %d: index lists %d cells, the shard holds %d stubs", i, listed, stubs)
		}
	}
}

// TestRebindStubsMatchesFullScan drives random intern / unroot / sweep /
// rebind sequences. Each rebind is predicted by scanning every cell of
// every shard, as RebindStubs itself used to; the indexed rebind must
// move exactly those cells, report exactly their owners, once each, and
// leave the index consistent — and empty once the heap is.
func TestRebindStubsMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	activity := func(n int) ids.ActivityID { return ids.ActivityID{Node: 9, Seq: uint32(1 + rng.Intn(n))} }
	value := func() wire.Value {
		elems := make([]wire.Value, 1+rng.Intn(4))
		for i := range elems {
			switch rng.Intn(3) {
			case 0:
				elems[i] = wire.Int(rng.Int63n(100))
			case 1:
				elems[i] = wire.Ref(activity(5))
			default:
				elems[i] = wire.FutureVal(wire.FutureRef{
					ID:    ids.FutureID{Node: 9, Seq: uint32(1 + rng.Intn(4))},
					Owner: activity(5),
				})
			}
		}
		return wire.List(elems...)
	}
	for iter := 0; iter < 40; iter++ {
		h := New(nil)
		var roots []RootID
		for step := 0; step < 120; step++ {
			switch rng.Intn(6) {
			case 0, 1, 2:
				owner := ids.ActivityID{Node: 1, Seq: uint32(1 + rng.Intn(40))} // 40 owners: most shards
				if _, root := h.InternRooted(owner, value()); rng.Intn(3) > 0 {
					roots = append(roots, root)
				} else {
					h.RemoveRoot(root)
				}
			case 3:
				if len(roots) > 0 {
					i := rng.Intn(len(roots))
					h.RemoveRoot(roots[i])
					roots = append(roots[:i], roots[i+1:]...)
				}
			case 4:
				h.Collect()
			case 5:
				rebindAndCompare(t, h, activity(5), activity(5))
			}
			checkIndex(t, h)
		}
		for _, root := range roots {
			h.RemoveRoot(root)
		}
		h.Collect()
		checkIndex(t, h)
		for i := range h.shards {
			if n := len(h.shards[i].byTarget); n != 0 {
				t.Fatalf("iter %d: shard %d still indexes %d targets in an empty heap", iter, i, n)
			}
		}
		if h.NumCells() != 0 {
			t.Fatalf("iter %d: %d cells left", iter, h.NumCells())
		}
	}
}

func rebindAndCompare(t *testing.T, h *Heap, old, new ids.ActivityID) {
	t.Helper()
	// The full scan: which cells designate old, and who owns them.
	type hit struct {
		shard *heapShard
		ref   ObjRef
	}
	var hits []hit
	wantOwners := make(map[ids.ActivityID]int)
	if old != new {
		for i := range h.shards {
			s := &h.shards[i]
			for ref, c := range s.cells {
				if (c.kind == kindStub || c.kind == kindFutureStub) && c.target == old {
					hits = append(hits, hit{s, ref})
					wantOwners[c.owner] = 1
				}
			}
		}
	}
	gotOwners := make(map[ids.ActivityID]int)
	h.RebindStubs(old, new, func(owner ids.ActivityID) { gotOwners[owner]++ })
	if len(gotOwners) != len(wantOwners) {
		t.Fatalf("rebind %v→%v reported owners %v, full scan %v", old, new, gotOwners, wantOwners)
	}
	for owner, n := range gotOwners {
		if n != 1 || wantOwners[owner] != 1 {
			t.Fatalf("rebind %v→%v reported %v %d times (full scan: %d)", old, new, owner, n, wantOwners[owner])
		}
	}
	for _, hit := range hits {
		c := hit.shard.cells[hit.ref]
		if c.target != new || c.children[0] != hit.shard.tags[tagKey{owner: c.owner, target: new}] {
			t.Fatalf("cell %d: target %v tag %d after rebind to %v", hit.ref, c.target, c.children[0], new)
		}
		if fr, ok := c.scalar.AsFutureRef(); ok && fr.Owner != new {
			t.Fatalf("future stub %d still materializes owner %v", hit.ref, fr.Owner)
		}
	}
	if old == new {
		return
	}
	for i := range h.shards {
		for ref, c := range h.shards[i].cells {
			if (c.kind == kindStub || c.kind == kindFutureStub) && c.target == old {
				t.Fatalf("cell %d still designates %v", ref, old)
			}
		}
	}
}

// TestRebindStubsEdgeInsideCriticalSection pins what the redirect path
// relies on: the edge callback runs while the owner's shard is locked, so
// no sweep can run between a stub's rebind and the edge it backs.
func TestRebindStubsEdgeInsideCriticalSection(t *testing.T) {
	h := New(nil)
	newID := ids.ActivityID{Node: 3, Seq: 1}
	h.NewStub(owner, remote)
	h.NewStub(owner2, remote)
	calls := 0
	h.RebindStubs(remote, newID, func(o ids.ActivityID) {
		calls++
		if s := h.shardOf(o); s.mu.TryLock() {
			s.mu.Unlock()
			t.Errorf("edge(%v) ran with its shard unlocked", o)
		}
		if !h.shardOf(o).hasStubLocked(o, newID) {
			t.Errorf("edge(%v) ran before the stub was rebound", o)
		}
	})
	if calls != 2 {
		t.Fatalf("edge ran %d times, want once per owner", calls)
	}
	// Unrooted stubs: the sweep now takes stub and both tags, and reports
	// the death of the new tag too — the event that removes the edge.
	deaths := h.Collect().TagDeaths
	want := map[TagDeath]bool{
		{Owner: owner, Target: remote}: true, {Owner: owner, Target: newID}: true,
		{Owner: owner2, Target: remote}: true, {Owner: owner2, Target: newID}: true,
	}
	if len(deaths) != len(want) {
		t.Fatalf("tag deaths %v, want %v", deaths, want)
	}
	for _, d := range deaths {
		if !want[d] {
			t.Fatalf("unexpected tag death %v", d)
		}
	}
}

// hasStubLocked reports whether owner holds a stub designating target;
// the caller holds s.mu.
func (s *heapShard) hasStubLocked(owner, target ids.ActivityID) bool {
	for _, c := range s.byTarget[target] {
		if c.owner == owner {
			return true
		}
	}
	return false
}

// TestShrinkKeepsLiveState: a shard that falls under half of its peak
// rebuilds its maps; roots, tags, weak references, the stub index and
// the cells themselves must come through, and the peak must restart.
func TestShrinkKeepsLiveState(t *testing.T) {
	var deaths []TagDeath
	h := New(func(d TagDeath) { deaths = append(deaths, d) })
	s := h.shardOf(owner)
	type kept struct {
		ref  ObjRef
		weak *Weak
	}
	var keep []kept
	var drop []RootID
	for i := 0; i < 400; i++ {
		target := ids.ActivityID{Node: 2, Seq: uint32(1 + i%7)}
		ref, root := h.InternRooted(owner, wire.List(wire.Int(int64(i)), wire.Ref(target)))
		if i%10 == 0 {
			keep = append(keep, kept{ref, h.NewWeak(ref)})
		} else {
			drop = append(drop, root)
		}
	}
	h.Collect()
	if s.peak != len(s.cells) || s.peak < 400 {
		t.Fatalf("peak %d with %d cells before the drop", s.peak, len(s.cells))
	}
	for _, root := range drop {
		h.RemoveRoot(root)
	}
	h.Collect()
	if s.peak != len(s.cells) || s.peak > 200 {
		t.Fatalf("peak %d with %d cells: the shard did not shrink", s.peak, len(s.cells))
	}
	checkIndex(t, h)
	for i, k := range keep {
		want := wire.List(wire.Int(int64(10*i)), wire.Ref(ids.ActivityID{Node: 2, Seq: uint32(1 + 10*i%7)}))
		if got := h.Materialize(k.ref); !got.Equal(want) {
			t.Fatalf("kept value %d = %v, want %v", i, got, want)
		}
		if !k.weak.Alive() {
			t.Fatalf("weak reference %d died with its referent rooted", i)
		}
	}
	if len(deaths) != 0 || h.NumRoots() != len(keep) {
		t.Fatalf("after shrink: tag deaths %v, %d roots for %d kept values", deaths, h.NumRoots(), len(keep))
	}
	rebindAndCompare(t, h, ids.ActivityID{Node: 2, Seq: 1}, ids.ActivityID{Node: 3, Seq: 1})
	checkIndex(t, h)
}
