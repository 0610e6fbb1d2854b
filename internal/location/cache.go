package location

import (
	"sync"

	"repro/internal/ids"
)

// DefaultCacheSize bounds a node's location table. An entry costs 36
// bytes (a 32-byte slab slot plus its hash bucket), so a full default
// table costs a node about 150 kB.
const DefaultCacheSize = 4096

// entry is one slab slot: a mapping threaded by slot index on the
// recency list (prev, next) and on its hash bucket's chain (hnext), or
// a free slot (key Nil) threaded on the free chain through next.
type entry struct {
	key, val          ids.ActivityID
	prev, next, hnext uint32
	origin            bool
}

// Cache is a node's bounded table from stale activity identities to
// their freshest known identity, evicting the least recently used
// mapping when full. It holds everything the node knows about moved
// activities: what redirects, gossip and directory announcements taught
// it (Add) and the migrations it took part in itself (AddOrigin), which
// ScanOrigin walks for the directory's re-announcements.
//
// Chains are compressed lazily: Add costs O(1) and leaves entries that
// named old alone; Resolve chases the chain and writes the answer back
// into the entry it started from, so a chain is walked once per stale
// key. An entry is always older than the hop it points at (Add and
// Resolve would have written it past a hop that already existed), so
// eviction eats a chain from its head: a lookup misses, and the caller
// falls back to the forwarder, or it ends at an identity some Add named
// — never at a wrong one.
//
// Entries live in a slab and are indexed by a chained hash table over
// slot numbers, so the table allocates nothing per entry and a full one
// is a third the size of a Go map of list elements.
type Cache struct {
	mu  sync.Mutex
	cap int
	n   int // mappings held
	// slab[0] is the recency list's sentinel: its next is the most
	// recently used slot, its prev the eviction victim.
	slab  []entry
	heads []uint32 // hash buckets: first slot of each chain, 0 when empty
	free  uint32   // head of the free chain, 0 when empty
}

// NewCache returns a table bounded to capacity entries (DefaultCacheSize
// when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, slab: make([]entry, 1), heads: make([]uint32, 1)}
}

// Add records old→new, with new first resolved through the chain
// already known. A mapping that collapses to identity erases the entry
// instead; Nil on either side is ignored.
func (c *Cache) Add(old, new ids.ActivityID) { c.add(old, new, false) }

// AddOrigin is Add for a migration this node took part in: the entry is
// also marked for ScanOrigin, until it is evicted.
func (c *Cache) AddOrigin(old, new ids.ActivityID) { c.add(old, new, true) }

func (c *Cache) add(old, new ids.ActivityID, origin bool) {
	if old.IsNil() || new.IsNil() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	new = c.chase(new)
	i := c.find(old)
	switch {
	case old == new:
		if i != 0 {
			c.remove(i)
		}
	case i != 0:
		e := &c.slab[i]
		e.val, e.origin = new, e.origin || origin
		c.touch(i)
	default:
		if c.n >= c.cap {
			c.remove(c.slab[0].prev)
		}
		i = c.alloc()
		b := c.bucket(old)
		c.slab[i] = entry{key: old, val: new, hnext: c.heads[b], origin: origin}
		c.heads[b] = i
		c.pushFront(i)
		c.n++
	}
}

// Resolve follows id through the table, returning id itself when
// nothing fresher is known. A hit refreshes the entry's recency and
// stores the chased answer in it.
func (c *Cache) Resolve(id ids.ActivityID) ids.ActivityID {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(id)
	if i == 0 {
		return id
	}
	c.touch(i)
	e := &c.slab[i]
	e.val = c.chase(e.val)
	return e.val
}

// chase follows a chain to its end without touching recency. Add keeps
// the table acyclic; the step bound is a guard, not a code path.
func (c *Cache) chase(id ids.ActivityID) ids.ActivityID {
	for steps := 0; steps < c.n; steps++ {
		i := c.find(id)
		if i == 0 {
			return id
		}
		id = c.slab[i].val
	}
	return id
}

func (c *Cache) bucket(id ids.ActivityID) uint32 {
	h := (uint64(id.Node)<<32 | uint64(id.Seq)) * 0x9E3779B97F4A7C15
	return uint32(h>>32) & uint32(len(c.heads)-1)
}

// find returns id's slot, 0 when it has none.
func (c *Cache) find(id ids.ActivityID) uint32 {
	i := c.heads[c.bucket(id)]
	for i != 0 && c.slab[i].key != id {
		i = c.slab[i].hnext
	}
	return i
}

// alloc returns an unused slot, doubling the slab (never past the
// bound) and rebuilding the buckets, a power of two of them, to match.
func (c *Cache) alloc() uint32 {
	if i := c.free; i != 0 {
		c.free = c.slab[i].next
		return i
	}
	if len(c.slab) == cap(c.slab) {
		size := min(2*len(c.slab), c.cap+1)
		c.slab = append(make([]entry, 0, size), c.slab...)
		buckets := len(c.heads)
		for buckets < size-1 {
			buckets *= 2
		}
		c.heads = make([]uint32, buckets)
		for i := uint32(1); i < uint32(len(c.slab)); i++ {
			if e := &c.slab[i]; !e.key.IsNil() {
				b := c.bucket(e.key)
				e.hnext, c.heads[b] = c.heads[b], i
			}
		}
	}
	c.slab = append(c.slab, entry{})
	return uint32(len(c.slab) - 1)
}

func (c *Cache) pushFront(i uint32) {
	head := c.slab[0].next
	c.slab[i].prev, c.slab[i].next = 0, head
	c.slab[head].prev = i
	c.slab[0].next = i
}

func (c *Cache) unlink(i uint32) {
	e := &c.slab[i]
	c.slab[e.prev].next = e.next
	c.slab[e.next].prev = e.prev
}

func (c *Cache) touch(i uint32) {
	if c.slab[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *Cache) remove(i uint32) {
	c.unlink(i)
	link := &c.heads[c.bucket(c.slab[i].key)]
	for *link != i {
		link = &c.slab[*link].hnext
	}
	*link = c.slab[i].hnext
	c.slab[i] = entry{next: c.free}
	c.free = i
	c.n--
}

// PurgeTargets drops every entry whose resolved value lives on node p
// (used when p is declared dead: those locations are now lies). Keys
// that merely pass *through* p stay: the key names an identity, not a
// host.
func (c *Cache) PurgeTargets(p ids.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Resolve everything first: removing a chain's last hop would hide
	// where the entries before it lead.
	for i := 1; i < len(c.slab); i++ {
		if e := &c.slab[i]; !e.key.IsNil() {
			e.val = c.chase(e.val)
		}
	}
	for i := 1; i < len(c.slab); i++ {
		if e := &c.slab[i]; !e.key.IsNil() && e.val.Node == p {
			c.remove(uint32(i))
		}
	}
}

// Len returns the number of mappings.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// ScanOrigin returns up to max AddOrigin mappings, resolved, in slab
// order from slot from, and the slot to resume at. It wraps around and
// visits no slot twice, so calling it with its own result walks the
// origin entries round-robin — the directory's per-beat re-announce.
func (c *Cache) ScanOrigin(from uint32, max int) (out []Rebind, next uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := uint32(len(c.slab))
	next = from
	for visited := uint32(1); visited < slots && len(out) < max; visited++ {
		if next == 0 || next >= slots {
			next = 1
		}
		e := &c.slab[next]
		next++
		if !e.origin {
			continue
		}
		e.val = c.chase(e.val)
		out = append(out, Rebind{Old: e.key, New: e.val})
	}
	return out, next
}

// Snapshot returns all mappings as stored, for tests.
func (c *Cache) Snapshot() []Rebind {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Rebind, 0, c.n)
	for _, e := range c.slab[1:] {
		if !e.key.IsNil() {
			out = append(out, Rebind{Old: e.key, New: e.val})
		}
	}
	return out
}
