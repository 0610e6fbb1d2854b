// Package localgc is the per-process local collector the paper builds the
// reference graph on (§2.2): a counted pin table. A pin is one interned,
// immutable wire.Value of one activity, with its roots and the keys it
// carries: a tag key (owner, target) per reference and future owner in
// it, and a future key per future. Tags are the only cells values share,
// so reachability is a count: all the stubs an activity holds for a
// target are collected exactly when their tag dies — the paper's "common
// tag + weak reference". Edges are a function of the pins: a tag key's
// first pin adds the owner's edge in the critical section that pins the
// value; Collect alone removes it, in the one that frees the key's last
// pin. A sweep frees the unrooted pins of a dying list, so it costs what
// died, not what lives. The table is sharded 32 ways by owner.
package localgc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// ObjRef is a handle to a pin (zero: none). RootID is a root of one: each
// InternRooted, NewStubRooted or AddRoot adds one, RemoveRoot drops one.
type (
	ObjRef uint64
	RootID uint64
)

const numShards, shardBits = 32, 5 // shardBits: the shard index in an ObjRef

// Edges is where the heap reports the edges its pins imply: Referencer
// returns owner's collector (nil: no live activity), whose methods run
// inside a shard's critical section and must not call back into the heap;
// Now, read before that section, stamps the changes.
type Edges interface {
	Referencer(owner ids.ActivityID) Referencer
	Now() time.Time
}

// Referencer is one activity's side of the reference graph.
type Referencer interface {
	AddReferenced(target ids.ActivityID, now time.Time)
	LostReferenced(target ids.ActivityID, now time.Time)
}

// TagDeath reports that Owner holds no stub for Target anymore.
type TagDeath struct{ Owner, Target ids.ActivityID }

// Stats summarizes a collection; Freed counts rebinds' tombs too.
type Stats struct {
	Live, Freed  int
	TagDeaths    []TagDeath
	FutureDeaths []ids.FutureID
}

// key is a tag key (owner, target), or a future key (fut) of its shard.
type key struct {
	owner, target ids.ActivityID
	fut           ids.FutureID
	isFut         bool
}

// pin is one interned value and its keys, once per occurrence.
type pin struct {
	ref   ObjRef
	owner ids.ActivityID
	val   wire.Value
	roots int
	dying bool // on its shard's dying list, which holds each pin once
	keys  []key
}

// shard is one lock's worth of the table. A key is in counts, and its
// edge in the graph, while a pin carries it.
type shard struct {
	mu           sync.Mutex
	idx, nextObj uint64
	pins         map[ObjRef]*pin
	counts       map[key]int32
	byTarget     map[ids.ActivityID]map[*pin]struct{}
	dying        []*pin // unrooted since the last Collect
	peak         int    // the most pins since the maps were built
}

// Heap is the object heap of one process. It is safe for concurrent use.
type Heap struct {
	shards [numShards]shard
	edges  Edges
}

// New returns an empty heap reporting to edges (nil: no graph).
func New(edges Edges) *Heap {
	if edges == nil {
		edges = noEdges{}
	}
	h := &Heap{edges: edges}
	for i := range h.shards {
		h.shards[i].idx = uint64(i)
		h.shards[i].build()
	}
	return h
}

// build remakes the maps at their size: Go maps never give buckets back.
func (s *shard) build() {
	s.pins, s.counts, s.byTarget = rebuilt(s.pins), rebuilt(s.counts), rebuilt(s.byTarget)
	s.dying, s.peak = nil, len(s.pins) // dying is empty: in New, and after a sweep
}

func rebuilt[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

type noEdges struct{}

func (noEdges) Referencer(ids.ActivityID) Referencer { return nil }
func (noEdges) Now() time.Time                       { return time.Time{} }

func (h *Heap) shardOf(owner ids.ActivityID) *shard {
	return &h.shards[(uint32(owner.Node)*31+owner.Seq)%numShards]
}

// each runs f on every shard under its lock.
func (h *Heap) each(f func(s *shard)) {
	for i := range h.shards {
		h.shards[i].mu.Lock()
		f(&h.shards[i])
		h.shards[i].mu.Unlock()
	}
}

// Intern pins v for owner unrooted: the next Collect frees it, unrooted.
func (h *Heap) Intern(owner ids.ActivityID, v wire.Value) ObjRef { return h.intern(owner, v, 0) }

// NewStub pins a bare stub, a reference held outside any value.
func (h *Heap) NewStub(owner, target ids.ActivityID) ObjRef {
	return h.Intern(owner, wire.Ref(target))
}

// NewStubRooted pins a stub and roots it atomically.
func (h *Heap) NewStubRooted(owner, target ids.ActivityID) (ObjRef, RootID) {
	return h.InternRooted(owner, wire.Ref(target))
}

// InternRooted pins v rooted: no Collect ever sees it unrooted.
func (h *Heap) InternRooted(owner ids.ActivityID, v wire.Value) (ObjRef, RootID) {
	ref := h.intern(owner, v, 1)
	return ref, RootID(ref)
}

// intern pins v with roots roots (0 or 1) in one critical section.
func (h *Heap) intern(owner ids.ActivityID, v wire.Value, roots int) ObjRef {
	p := &pin{owner: owner, val: v, roots: roots, dying: roots == 0}
	var refs [8]ids.ActivityID
	for _, t := range v.Refs(refs[:0]) {
		p.keys = append(p.keys, key{owner: owner, target: t})
	}
	for _, fr := range v.FutureRefs(nil) {
		p.keys = append(p.keys, key{fut: fr.ID, isFut: true})
	}
	now := h.edges.Now()
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextObj++
	p.ref = ObjRef(s.nextObj<<shardBits | s.idx)
	s.pins[p.ref] = p
	for _, k := range p.keys {
		h.count(s, p, k, now)
	}
	if p.dying {
		s.dying = append(s.dying, p)
	}
	return p.ref
}

// count adds p to the pins carrying k; a tag key's first adds its edge.
func (h *Heap) count(s *shard, p *pin, k key, now time.Time) {
	n, ok := s.counts[k]
	if s.counts[k] = n + 1; k.isFut {
		return
	}
	if !ok {
		if r := h.edges.Referencer(k.owner); r != nil {
			r.AddReferenced(k.target, now)
		}
	}
	if s.byTarget[k.target] == nil {
		s.byTarget[k.target] = make(map[*pin]struct{}, 1)
	}
	s.byTarget[k.target][p] = struct{}{}
}

// uncount takes p out of the pins carrying k. The last one takes the
// key: a future tag's death, or a tag's and its edge's.
func (h *Heap) uncount(s *shard, p *pin, k key, now time.Time, st *Stats) {
	if set := s.byTarget[k.target]; set != nil && !k.isFut {
		if delete(set, p); len(set) == 0 {
			delete(s.byTarget, k.target)
		}
	}
	if s.counts[k]--; s.counts[k] > 0 {
		return
	}
	if delete(s.counts, k); k.isFut {
		st.FutureDeaths = append(st.FutureDeaths, k.fut)
		return
	}
	st.TagDeaths = append(st.TagDeaths, TagDeath{k.owner, k.target})
	if r := h.edges.Referencer(k.owner); r != nil {
		r.LostReferenced(k.target, now)
	}
}

// Materialize returns the value pinned at ref, or null.
func (h *Heap) Materialize(ref ObjRef) wire.Value {
	s := &h.shards[ref%numShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pins[ref]; ok {
		return p.val
	}
	return wire.Null()
}

// AddRoot roots ref (a freed pin's root holds nothing).
func (h *Heap) AddRoot(ref ObjRef) RootID {
	s := &h.shards[ref%numShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pins[ref]; p != nil {
		p.roots++
	}
	return RootID(ref)
}

// RemoveRoot drops a root; one of a pin without roots is a no-op.
func (h *Heap) RemoveRoot(id RootID) {
	s := &h.shards[id%numShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pins[ObjRef(id)]; p != nil && p.roots > 0 {
		if p.roots--; p.roots == 0 && !p.dying {
			p.dying, s.dying = true, append(s.dying, p)
		}
	}
}

// RebindStubs makes the pinned references to old designate new (a
// migration redirect). A new key adds its edge in the same critical
// section; the old keys move to a tomb, a dying pin with no value.
func (h *Heap) RebindStubs(old, new ids.ActivityID) {
	if old == new || old.IsNil() || new.IsNil() {
		return
	}
	now := h.edges.Now()
	h.each(func(s *shard) {
		var tomb *pin
		for p := range s.byTarget[old] {
			delete(s.byTarget, old) // the loop holds the set
			p.val = wire.Rebind(p.val, old, new)
			for j, k := range p.keys {
				if k.isFut || k.target != old {
					continue
				}
				if tomb == nil {
					tomb = &pin{dying: true}
					s.dying = append(s.dying, tomb)
				}
				tomb.keys = append(tomb.keys, k)
				p.keys[j].target = new
				h.count(s, p, p.keys[j], now)
			}
		}
	})
}

// Collect frees the dying pins still unrooted, shard by shard under each
// lock, and reports the keys that died with them (and their edges).
func (h *Heap) Collect() (st Stats) {
	now := h.edges.Now()
	h.each(func(s *shard) { h.collect(s, now, &st) })
	return st
}

func (h *Heap) collect(s *shard, now time.Time, st *Stats) {
	s.peak = max(s.peak, len(s.pins)) // pins are only freed here
	for _, p := range s.dying {
		if p.dying = false; p.roots > 0 {
			continue
		}
		delete(s.pins, p.ref)
		st.Freed++
		for _, k := range p.keys {
			h.uncount(s, p, k, now, st)
		}
	}
	clear(s.dying) // drop the pointers: the array is kept
	s.dying = s.dying[:0]
	if st.Live += len(s.pins); s.peak >= 32 && len(s.pins) < s.peak/2 {
		s.build() // a sweep left the maps under half their peak
	}
}

// NumRoots returns the current number of registered roots.
func (h *Heap) NumRoots() (n int) {
	h.each(func(s *shard) {
		for _, p := range s.pins {
			n += p.roots
		}
	})
	return n
}

// HasTag reports whether owner holds a live tag for target.
func (h *Heap) HasTag(owner, target ids.ActivityID) bool {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.counts[key{owner: owner, target: target}]
	return ok
}

// HasFutureTag reports whether an activity here holds a stub of fid.
func (h *Heap) HasFutureTag(fid ids.FutureID) (ok bool) {
	h.each(func(s *shard) { _, in := s.counts[key{fut: fid, isFut: true}]; ok = ok || in })
	return ok
}

// String summarizes the heap for debugging.
func (h *Heap) String() string {
	pins, keys := 0, 0
	h.each(func(s *shard) { pins, keys = pins+len(s.pins), keys+len(s.counts) })
	return fmt.Sprintf("heap{pins=%d roots=%d keys=%d}", pins, h.NumRoots(), keys)
}
