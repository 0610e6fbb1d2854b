// Package localgc simulates the per-process local garbage collector the
// paper builds the reference graph on top of (§2.2), without requiring any
// cooperation from the host language runtime — exactly the constraint the
// paper works under with the JVM.
//
// The heap stores passive objects (cells) owned by the activities of one
// process. References to remote activities are materialized as stub cells.
// All stubs held by one activity for the same remote target share a single
// tag cell; the DGC keeps a weak reference to the tag, so the local
// collection of *all* such stubs — and only that — is observable as the tag
// dying at the next sweep. This reproduces the paper's "common tag + weak
// reference" optimization verbatim.
//
// The no-sharing property (§2.1) is enforced at interning time: every cell
// records its owning activity, and values cross activity boundaries as
// wire encodings before they ever reach the heap.
//
// The heap is sharded 32 ways by owning activity (the same shape as
// simnet's routing shards): one activity's object graph never references
// another activity's cells — no sharing, enforced above — so each shard
// is an independent heap with its own lock, allocator, tag table and
// mark-sweep. Hot-path interning and root flips from many concurrent
// activities stop serializing on a single mutex. The shard index rides
// in the low 5 bits of every ObjRef and RootID, so ref-addressed
// operations (Materialize, AddRoot/RemoveRoot, NewWeak) find their shard
// without consulting the owner.
//
// Each shard also indexes its stub cells by the activity they designate,
// so that rebinding the stubs of a migrated activity (RebindStubs) costs
// what those stubs cost and not a scan of the heap; and it rebuilds its
// maps after a sweep that leaves them under half their peak, because Go
// maps never give buckets back.
package localgc

import (
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/wire"
)

// ObjRef is a handle to a heap cell. The zero ObjRef is "nil pointer".
type ObjRef uint64

// RootID names a GC root registration.
type RootID uint64

// numShards is a power of two so shard picks compile to masks; shardBits
// is the width of the shard index carried in ObjRef/RootID low bits.
const (
	numShards = 32
	shardBits = 5
)

// cellKind discriminates the heap cell variants.
type cellKind uint8

const (
	kindScalar cellKind = iota + 1
	kindList
	kindDict
	kindStub
	kindTag
	kindFutureStub
	kindFutureTag
)

// cell is one passive object. kind, marked and pos share the eight bytes
// in front of owner, which keeps the struct at 208 bytes, a size class of
// its own.
type cell struct {
	kind   cellKind
	marked bool
	// pos is the cell's slot in its shard's byTarget[target] list (stubs
	// and future stubs only).
	pos   uint32
	owner ids.ActivityID
	// scalar payload (kindScalar only).
	scalar wire.Value
	// children for lists; also the single tag child for stubs.
	children []ObjRef
	// keys parallel to children (kindDict only).
	keys []string
	// stub target (kindStub); tag identity (kindTag shares owner+target).
	target ids.ActivityID
	// future identity (kindFutureStub and kindFutureTag). Future stubs
	// also keep the original future value in scalar so Materialize can
	// rebuild it.
	future ids.FutureID
}

// TagDeath reports that activity Owner no longer holds any stub for Target:
// the shared tag cell died at a local collection.
type TagDeath struct {
	Owner  ids.ActivityID
	Target ids.ActivityID
}

// Stats summarizes a collection.
type Stats struct {
	// Live is the number of cells surviving the sweep.
	Live int
	// Freed is the number of cells reclaimed by the sweep.
	Freed int
	// TagDeaths lists the (owner, target) stub tags that died.
	TagDeaths []TagDeath
	// FutureDeaths lists the futures for which no activity in the swept
	// shard holds a future stub anymore (the runtime's future-table sweep
	// polls HasFutureTag instead of consuming these; they are reported
	// for tests and metrics).
	FutureDeaths []ids.FutureID
}

type tagKey struct {
	owner  ids.ActivityID
	target ids.ActivityID
}

// heapShard is one independent heap: cells owned by the activities that
// hash here, with a private allocator, root set, tag tables and weak
// registry. An object graph never spans shards (interning passes one
// owner down the whole graph), so each shard marks and sweeps alone.
type heapShard struct {
	idx      uint64
	mu       sync.Mutex
	cells    map[ObjRef]*cell
	nextObj  uint64
	roots    map[RootID]ObjRef
	nextRoot uint64
	tags     map[tagKey]ObjRef
	// futTags, weaks and byTarget are nil until first written: most
	// shards never hold a future stub, a weak reference or a stub, and an
	// Env of five nodes has 160 shards.
	futTags map[ids.FutureID]ObjRef
	weaks   map[ObjRef][]*Weak
	// byTarget indexes the shard's stub and future-stub cells by the
	// activity they designate, so a rebind touches only those. A cell is
	// listed from interning to its sweep; an emptied list is deleted.
	byTarget map[ids.ActivityID][]*cell
	// peak is the largest cell count since the maps were last rebuilt.
	peak int
}

// Heap is the object heap of one process. It is safe for concurrent use.
type Heap struct {
	shards [numShards]heapShard

	// onTagDeath, if set, is invoked (outside the heap lock) once per tag
	// death at the end of each collection. The DGC driver subscribes here.
	onTagDeath func(TagDeath)
}

// New returns an empty heap. onTagDeath may be nil.
func New(onTagDeath func(TagDeath)) *Heap {
	h := &Heap{onTagDeath: onTagDeath}
	for i := range h.shards {
		s := &h.shards[i]
		s.idx = uint64(i)
		s.cells = make(map[ObjRef]*cell)
		s.roots = make(map[RootID]ObjRef)
		s.tags = make(map[tagKey]ObjRef)
	}
	return h
}

// shardOf picks the shard owning an activity's object graph.
func (h *Heap) shardOf(owner ids.ActivityID) *heapShard {
	return &h.shards[(uint32(owner.Node)*31+owner.Seq)%numShards]
}

// shardFor picks the shard a ref- or root-handle encodes.
func (h *Heap) shardFor(bits uint64) *heapShard {
	return &h.shards[bits&(numShards-1)]
}

func (s *heapShard) alloc(c *cell) ObjRef {
	s.nextObj++
	ref := ObjRef(s.nextObj<<shardBits | s.idx)
	s.cells[ref] = c
	return ref
}

// Intern deep-copies the value graph v into heap cells owned by owner and
// returns the root cell. Every wire.Ref in v becomes a stub cell whose tag
// is shared with all other stubs of the same (owner, target) pair.
func (h *Heap) Intern(owner ids.ActivityID, v wire.Value) ObjRef {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intern(owner, v)
}

func (s *heapShard) intern(owner ids.ActivityID, v wire.Value) ObjRef {
	switch v.Kind() {
	case wire.KindList:
		children := make([]ObjRef, v.Len())
		for i := 0; i < v.Len(); i++ {
			children[i] = s.intern(owner, v.At(i))
		}
		return s.alloc(&cell{kind: kindList, owner: owner, children: children})
	case wire.KindDict:
		keys := v.Keys()
		children := make([]ObjRef, len(keys))
		for i, k := range keys {
			children[i] = s.intern(owner, v.Get(k))
		}
		return s.alloc(&cell{kind: kindDict, owner: owner, keys: keys, children: children})
	case wire.KindRef:
		target, _ := v.AsRef()
		return s.internStub(owner, target)
	case wire.KindFuture:
		return s.internFutureStub(owner, v)
	default:
		return s.alloc(&cell{kind: kindScalar, owner: owner, scalar: v})
	}
}

func (s *heapShard) internStub(owner, target ids.ActivityID) ObjRef {
	return s.allocStub(&cell{
		kind:     kindStub,
		owner:    owner,
		target:   target,
		children: []ObjRef{s.tagForLocked(owner, target)},
	})
}

// allocStub allocates a stub or future-stub cell and lists it under its
// target.
func (s *heapShard) allocStub(c *cell) ObjRef {
	s.index(c)
	return s.alloc(c)
}

func (s *heapShard) index(c *cell) {
	if s.byTarget == nil {
		s.byTarget = make(map[ids.ActivityID][]*cell)
	}
	list := s.byTarget[c.target]
	c.pos = uint32(len(list))
	s.byTarget[c.target] = append(list, c)
}

// unindex takes c out of its target's list in O(1): the list's last cell
// moves into c's slot.
func (s *heapShard) unindex(c *cell) {
	list := s.byTarget[c.target]
	last := uint32(len(list) - 1)
	if c.pos != last {
		list[c.pos] = list[last]
		list[c.pos].pos = c.pos
	}
	list[last] = nil
	if last == 0 {
		delete(s.byTarget, c.target)
	} else {
		s.byTarget[c.target] = list[:last]
	}
}

// internFutureStub allocates a stub for a first-class future value. It
// pins two tags: the (owner, future-owner) activity tag — holding a
// future references the activity the result belongs to, exactly like
// holding a plain stub — and the shard's future tag, whose death tells
// the runtime no activity in this shard can name the future anymore
// (HasFutureTag asks every shard, preserving the node-wide answer).
func (s *heapShard) internFutureStub(owner ids.ActivityID, v wire.Value) ObjRef {
	fr, _ := v.AsFutureRef()
	tag := s.tagForLocked(owner, fr.Owner)
	ftag, ok := s.futTags[fr.ID]
	if !ok {
		ftag = s.alloc(&cell{kind: kindFutureTag, future: fr.ID})
		if s.futTags == nil {
			s.futTags = make(map[ids.FutureID]ObjRef)
		}
		s.futTags[fr.ID] = ftag
	}
	return s.allocStub(&cell{
		kind:     kindFutureStub,
		owner:    owner,
		target:   fr.Owner,
		future:   fr.ID,
		scalar:   v,
		children: []ObjRef{tag, ftag},
	})
}

// NewStub allocates a bare stub cell for owner designating target, sharing
// the (owner, target) tag. The runtime uses it for stubs that exist outside
// any interned value (e.g. a reference held by the service loop itself).
func (h *Heap) NewStub(owner, target ids.ActivityID) ObjRef {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.internStub(owner, target)
}

// InternRooted interns v (like Intern) and registers the resulting cell as
// a root in the same critical section, so a concurrent Collect can never
// observe the cell unrooted.
func (h *Heap) InternRooted(owner ids.ActivityID, v wire.Value) (ObjRef, RootID) {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := s.intern(owner, v)
	return ref, s.addRootLocked(ref)
}

// NewStubRooted allocates a stub (like NewStub) and roots it atomically.
func (h *Heap) NewStubRooted(owner, target ids.ActivityID) (ObjRef, RootID) {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := s.internStub(owner, target)
	return ref, s.addRootLocked(ref)
}

func (s *heapShard) addRootLocked(ref ObjRef) RootID {
	s.nextRoot++
	id := RootID(s.nextRoot<<shardBits | s.idx)
	s.roots[id] = ref
	return id
}

// Materialize rebuilds the wire value stored at ref. Stubs materialize as
// wire.Ref values. Materializing the zero ObjRef or a freed cell yields
// null.
func (h *Heap) Materialize(ref ObjRef) wire.Value {
	s := h.shardFor(uint64(ref))
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materialize(ref)
}

func (s *heapShard) materialize(ref ObjRef) wire.Value {
	c, ok := s.cells[ref]
	if !ok {
		return wire.Null()
	}
	switch c.kind {
	case kindScalar:
		return c.scalar
	case kindList:
		elems := make([]wire.Value, len(c.children))
		for i, ch := range c.children {
			elems[i] = s.materialize(ch)
		}
		return wire.List(elems...)
	case kindDict:
		m := make(map[string]wire.Value, len(c.keys))
		for i, k := range c.keys {
			m[k] = s.materialize(c.children[i])
		}
		return wire.Dict(m)
	case kindStub:
		return wire.Ref(c.target)
	case kindFutureStub:
		return c.scalar
	default: // tags have no value representation
		return wire.Null()
	}
}

// AddRoot registers ref as a GC root and returns a handle to remove it.
func (h *Heap) AddRoot(ref ObjRef) RootID {
	s := h.shardFor(uint64(ref))
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addRootLocked(ref)
}

// RemoveRoot drops a root registration. Removing an unknown root is a
// no-op.
func (h *Heap) RemoveRoot(id RootID) {
	s := h.shardFor(uint64(id))
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.roots, id)
}

// Weak is a weak reference to a heap cell: it does not keep the cell alive
// and observes its collection. This is the mechanism the DGC uses to watch
// stub tags (§2.2).
type Weak struct {
	mu    sync.Mutex
	alive bool
}

// Alive reports whether the referent still exists.
func (w *Weak) Alive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

func (w *Weak) kill() {
	w.mu.Lock()
	w.alive = false
	w.mu.Unlock()
}

// NewWeak returns a weak reference to ref. If ref does not exist the weak
// reference is born dead.
func (h *Heap) NewWeak(ref ObjRef) *Weak {
	s := h.shardFor(uint64(ref))
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &Weak{}
	if _, ok := s.cells[ref]; !ok {
		return w
	}
	w.alive = true
	if s.weaks == nil {
		s.weaks = make(map[ObjRef][]*Weak)
	}
	s.weaks[ref] = append(s.weaks[ref], w)
	return w
}

// TagFor returns the tag cell shared by owner's stubs of target, creating
// it if needed. The DGC driver takes a weak reference to it.
func (h *Heap) TagFor(owner, target ids.ActivityID) ObjRef {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tagForLocked(owner, target)
}

// RebindStubs rewrites every stub (and future stub) designating old so it
// designates new instead — the heap half of an activity-migration
// redirect. Each rebound stub joins (or creates) the (owner, new) shared
// tag; the old (owner, old) tags are left in place and die at the next
// sweep once nothing references them anymore, firing the ordinary
// tag-death path that removes the old reference-graph edge.
//
// edge is called once per distinct owner of a rebound stub, with that
// owner's shard still locked, so the caller can add the (owner → new)
// edge in the same critical section as the stub it is backed by: a sweep
// sees both or neither. It must not call back into the heap.
func (h *Heap) RebindStubs(old, new ids.ActivityID, edge func(owner ids.ActivityID)) {
	if old == new || old.IsNil() || new.IsNil() {
		return
	}
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		s.rebindLocked(old, new, edge)
		s.mu.Unlock()
	}
}

func (s *heapShard) rebindLocked(old, new ids.ActivityID, edge func(owner ids.ActivityID)) {
	list := s.byTarget[old]
	if len(list) == 0 {
		return
	}
	delete(s.byTarget, old)
	owners := make(map[ids.ActivityID]struct{}, 1)
	for _, c := range list {
		c.target = new
		c.children[0] = s.tagForLocked(c.owner, new)
		if fr, ok := c.scalar.AsFutureRef(); ok && fr.Owner == old {
			// Future stubs alone carry a value: the one Materialize rebuilds.
			fr.Owner = new
			c.scalar = wire.FutureVal(fr)
		}
		s.index(c)
		if _, seen := owners[c.owner]; !seen {
			owners[c.owner] = struct{}{}
			edge(c.owner)
		}
	}
}

// tagForLocked returns (creating if needed) the shared (owner, target)
// tag cell; the caller holds s.mu.
func (s *heapShard) tagForLocked(owner, target ids.ActivityID) ObjRef {
	key := tagKey{owner: owner, target: target}
	tag, ok := s.tags[key]
	if !ok {
		tag = s.alloc(&cell{kind: kindTag, owner: owner, target: target})
		s.tags[key] = tag
	}
	return tag
}

// Collect runs a mark-and-sweep and returns aggregate statistics. Each
// shard is collected independently under its own lock (object graphs
// never span shards), so the stop-the-world window is per shard, not per
// heap. Tag-death callbacks fire after each shard's sweep, outside the
// locks.
func (h *Heap) Collect() Stats {
	var st Stats
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		shardStats := s.collectLocked()
		s.mu.Unlock()
		st.Live += shardStats.Live
		st.Freed += shardStats.Freed
		st.TagDeaths = append(st.TagDeaths, shardStats.TagDeaths...)
		st.FutureDeaths = append(st.FutureDeaths, shardStats.FutureDeaths...)
		if h.onTagDeath != nil {
			for _, d := range shardStats.TagDeaths {
				h.onTagDeath(d)
			}
		}
	}
	return st
}

func (s *heapShard) collectLocked() Stats {
	// Cells are only ever freed here, so the count on entry is the
	// largest since the last sweep.
	s.peak = max(s.peak, len(s.cells))
	// Mark.
	for _, c := range s.cells {
		c.marked = false
	}
	stack := make([]ObjRef, 0, len(s.roots))
	for _, ref := range s.roots {
		stack = append(stack, ref)
	}
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, ok := s.cells[ref]
		if !ok || c.marked {
			continue
		}
		c.marked = true
		stack = append(stack, c.children...)
	}

	// Sweep.
	var st Stats
	for ref, c := range s.cells {
		if c.marked {
			st.Live++
			continue
		}
		st.Freed++
		delete(s.cells, ref)
		for _, w := range s.weaks[ref] {
			w.kill()
		}
		delete(s.weaks, ref)
		switch c.kind {
		case kindTag:
			key := tagKey{owner: c.owner, target: c.target}
			delete(s.tags, key)
			st.TagDeaths = append(st.TagDeaths, TagDeath{Owner: c.owner, Target: c.target})
		case kindFutureTag:
			delete(s.futTags, c.future)
			st.FutureDeaths = append(st.FutureDeaths, c.future)
		case kindStub, kindFutureStub:
			s.unindex(c)
		}
	}
	if s.peak >= shrinkFloor && len(s.cells) < s.peak/2 {
		s.shrink()
	}
	return st
}

// shrinkFloor is the population under which a shard's maps are not worth
// rebuilding.
const shrinkFloor = 32

// shrink rebuilds the shard's maps at their current population. Go maps
// keep the buckets of their largest size for ever, so a shard that lived
// through a population peak would otherwise hold that memory for good.
func (s *heapShard) shrink() {
	s.cells = rebuilt(s.cells)
	s.roots = rebuilt(s.roots)
	s.tags = rebuilt(s.tags)
	s.futTags = rebuilt(s.futTags)
	s.weaks = rebuilt(s.weaks)
	s.byTarget = rebuilt(s.byTarget)
	s.peak = len(s.cells)
}

func rebuilt[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// NumCells returns the current number of cells (for tests and metrics).
func (h *Heap) NumCells() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		total += len(s.cells)
		s.mu.Unlock()
	}
	return total
}

// NumRoots returns the current number of registered roots.
func (h *Heap) NumRoots() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		total += len(s.roots)
		s.mu.Unlock()
	}
	return total
}

// HasTag reports whether owner currently holds a live tag for target, i.e.
// whether at least one stub (owner → target) existed at the last sweep.
func (h *Heap) HasTag(owner, target ids.ActivityID) bool {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.tags[tagKey{owner: owner, target: target}]
	return ok
}

// HasFutureTag reports whether any activity on this node still holds a
// future stub for fid (as of the last sweep).
func (h *Heap) HasFutureTag(fid ids.FutureID) bool {
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		_, ok := s.futTags[fid]
		s.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// StubTargets returns the distinct remote targets for which owner holds at
// least one live tag, in unspecified order. Tags live in their owner's
// shard, so only that shard is consulted.
func (h *Heap) StubTargets(owner ids.ActivityID) []ids.ActivityID {
	s := h.shardOf(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ids.ActivityID
	for key := range s.tags {
		if key.owner == owner {
			out = append(out, key.target)
		}
	}
	return out
}

// String implements fmt.Stringer with a summary for debugging.
func (h *Heap) String() string {
	cells, roots, tags := 0, 0, 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		cells += len(s.cells)
		roots += len(s.roots)
		tags += len(s.tags)
		s.mu.Unlock()
	}
	return fmt.Sprintf("heap{cells=%d roots=%d tags=%d}", cells, roots, tags)
}
