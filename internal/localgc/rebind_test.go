package localgc

import (
	"math/rand"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

// checkIndex compares every shard's byTarget index with a full scan of
// its pins: the index must list exactly the pins carrying a tag key for
// each target, and every key count must be what the pins, and the tombs
// of rebinds awaiting the next Collect, carry.
func checkIndex(t *testing.T, h *Heap) {
	t.Helper()
	for i := range h.shards {
		s := &h.shards[i]
		carried := make(map[key]int32)
		onList := make(map[*pin]bool)
		for _, p := range s.dying {
			if onList[p] || !p.dying {
				t.Fatalf("shard %d: the dying list holds a pin twice, or one not flagged dying", i)
			}
			onList[p] = true
			if _, pinned := s.pins[p.ref]; !pinned {
				for _, k := range p.keys {
					carried[k]++
				}
			}
		}
		listed := make(map[ids.ActivityID]int)
		for ref, p := range s.pins {
			seen := make(map[ids.ActivityID]bool)
			for _, k := range p.keys {
				carried[k]++
				if k.isFut || seen[k.target] {
					continue
				}
				seen[k.target] = true
				listed[k.target]++
				if _, ok := s.byTarget[k.target][p]; !ok {
					t.Fatalf("shard %d: pin %d carries %v but is not indexed under it", i, ref, k.target)
				}
			}
		}
		for target, set := range s.byTarget {
			if len(set) == 0 || len(set) != listed[target] {
				t.Fatalf("shard %d: index lists %d pins under %v, the pins carry it %d times", i, len(set), target, listed[target])
			}
		}
		if len(s.counts) != len(carried) {
			t.Fatalf("shard %d: %d keys counted, %d carried", i, len(s.counts), len(carried))
		}
		for k, n := range s.counts {
			if n != carried[k] {
				t.Fatalf("shard %d: key %v counted %d, carried by %d pins", i, k, n, carried[k])
			}
		}
	}
}

// TestRebindStubsMatchesFullScan drives random intern / unroot / sweep /
// rebind sequences. Each rebind is predicted by scanning every pin of
// every shard; the indexed rebind must move exactly those pins, give each
// of their owners exactly one edge to the new identity, and leave the
// index consistent — and empty once the heap is.
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
		edges := newEdgeLog(t)
		h := New(edges)
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
				rebindAndCompare(t, h, edges, activity(5), activity(5))
			}
			checkIndex(t, h)
		}
		for _, root := range roots {
			h.RemoveRoot(root)
		}
		h.Collect()
		checkIndex(t, h)
		for i := range h.shards {
			if s := &h.shards[i]; len(s.byTarget)+len(s.counts)+len(s.pins) != 0 {
				t.Fatalf("iter %d: shard %d keeps %d index entries, %d keys, %d pins in an empty heap",
					iter, i, len(s.byTarget), len(s.counts), len(s.pins))
			}
		}
		if len(edges.edges) != 0 {
			t.Fatalf("iter %d: edges %v outlived every pin", iter, edges.edges)
		}
	}
}

func rebindAndCompare(t *testing.T, h *Heap, edges *edgeLog, old, new ids.ActivityID) {
	t.Helper()
	// The full scan: which pins designate old, and what they become.
	want := make(map[*pin]wire.Value)
	owners := make(map[ids.ActivityID]bool)
	if old != new {
		for i := range h.shards {
			for _, p := range h.shards[i].pins {
				for _, k := range p.keys {
					if !k.isFut && k.target == old {
						want[p] = wire.Rebind(p.val, old, new)
						owners[p.owner] = true
					}
				}
			}
		}
	}
	h.RebindStubs(old, new)
	for p, v := range want {
		if !p.val.Equal(v) {
			t.Fatalf("pin %d materializes %v after rebind %v→%v, want %v", p.ref, p.val, old, new, v)
		}
	}
	for owner := range owners {
		if !edges.has(owner, new) || !h.HasTag(owner, new) {
			t.Fatalf("rebind %v→%v left %v without the tag or edge to %v", old, new, owner, new)
		}
	}
	if old == new {
		return
	}
	for i := range h.shards {
		for ref, p := range h.shards[i].pins {
			for _, k := range p.keys {
				if !k.isFut && k.target == old {
					t.Fatalf("pin %d still designates %v", ref, old)
				}
			}
		}
	}
}

// TestRebindStubsEdgeInsideCriticalSection pins what the redirect path
// relies on: the edge to the new identity is added while the owner's
// shard is locked and after the stub was rebound, so no sweep can run
// between a stub's rebind and the edge it backs.
func TestRebindStubsEdgeInsideCriticalSection(t *testing.T) {
	edges := newEdgeLog(t)
	h := New(edges)
	newID := ids.ActivityID{Node: 3, Seq: 1}
	h.NewStub(owner, remote)
	h.NewStub(owner2, remote)
	calls := 0
	edges.onAdd = func(o, target ids.ActivityID) {
		if target != newID {
			return
		}
		calls++
		s := h.shardOf(o)
		if s.mu.TryLock() {
			s.mu.Unlock()
			t.Errorf("edge(%v) ran with its shard unlocked", o)
		}
		if _, ok := s.counts[key{owner: o, target: newID}]; !ok {
			t.Errorf("edge(%v) ran before the stub was rebound", o)
		}
	}
	h.RebindStubs(remote, newID)
	if calls != 2 {
		t.Fatalf("edge ran %d times, want once per owner", calls)
	}
	// Unrooted stubs: the sweep takes both, and reports the death of the
	// old tags, which the rebind left to a tomb, and of the new ones — the
	// events that remove the edges.
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
	if len(edges.edges) != 0 {
		t.Fatalf("edges %v outlived their stubs", edges.edges)
	}
}

// TestShrinkKeepsLiveState: a shard that falls under half of its peak
// rebuilds its maps; pins, keys, roots and the target index must come
// through, and the peak must restart.
func TestShrinkKeepsLiveState(t *testing.T) {
	edges := newEdgeLog(t)
	h := New(edges)
	s := h.shardOf(owner)
	var keep []ObjRef
	var drop []RootID
	for i := 0; i < 400; i++ {
		target := ids.ActivityID{Node: 2, Seq: uint32(1 + i%7)}
		ref, root := h.InternRooted(owner, wire.List(wire.Int(int64(i)), wire.Ref(target)))
		if i%10 == 0 {
			keep = append(keep, ref)
		} else {
			drop = append(drop, root)
		}
	}
	h.Collect()
	if s.peak != len(s.pins) || s.peak < 400 {
		t.Fatalf("peak %d with %d pins before the drop", s.peak, len(s.pins))
	}
	for _, root := range drop {
		h.RemoveRoot(root)
	}
	st := h.Collect()
	if s.peak != len(s.pins) || s.peak > 200 {
		t.Fatalf("peak %d with %d pins: the shard did not shrink", s.peak, len(s.pins))
	}
	checkIndex(t, h)
	for i, ref := range keep {
		want := wire.List(wire.Int(int64(10*i)), wire.Ref(ids.ActivityID{Node: 2, Seq: uint32(1 + 10*i%7)}))
		if got := h.Materialize(ref); !got.Equal(want) {
			t.Fatalf("kept value %d = %v, want %v", i, got, want)
		}
	}
	if len(st.TagDeaths) != 0 || h.NumRoots() != len(keep) {
		t.Fatalf("after shrink: tag deaths %v, %d roots for %d kept values", st.TagDeaths, h.NumRoots(), len(keep))
	}
	rebindAndCompare(t, h, edges, ids.ActivityID{Node: 2, Seq: 1}, ids.ActivityID{Node: 3, Seq: 1})
	checkIndex(t, h)
}
