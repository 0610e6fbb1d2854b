package location

import (
	"math/rand"
	"testing"

	"repro/internal/ids"
)

// model is the brute-force oracle of Cache: the same contract — bounded,
// least recently used out first, new resolved on Add, the answer written
// back on Resolve — over a plain slice searched linearly.
type model struct {
	cap int
	lru []modelEntry // most recently used first
}

type modelEntry struct {
	key, val ids.ActivityID
	origin   bool
}

func (m *model) find(id ids.ActivityID) int {
	for i, e := range m.lru {
		if e.key == id {
			return i
		}
	}
	return -1
}

func (m *model) chase(id ids.ActivityID) ids.ActivityID {
	for steps := 0; steps < len(m.lru); steps++ {
		i := m.find(id)
		if i < 0 {
			return id
		}
		id = m.lru[i].val
	}
	return id
}

func (m *model) remove(i int) { m.lru = append(m.lru[:i], m.lru[i+1:]...) }

func (m *model) toFront(i int) {
	e := m.lru[i]
	m.remove(i)
	m.lru = append([]modelEntry{e}, m.lru...)
}

func (m *model) add(old, new ids.ActivityID, origin bool) {
	if old.IsNil() || new.IsNil() {
		return
	}
	new = m.chase(new)
	i := m.find(old)
	switch {
	case old == new:
		if i >= 0 {
			m.remove(i)
		}
	case i >= 0:
		m.lru[i].val, m.lru[i].origin = new, m.lru[i].origin || origin
		m.toFront(i)
	default:
		if len(m.lru) >= m.cap {
			m.remove(len(m.lru) - 1)
		}
		m.lru = append([]modelEntry{{key: old, val: new, origin: origin}}, m.lru...)
	}
}

func (m *model) resolve(id ids.ActivityID) ids.ActivityID {
	i := m.find(id)
	if i < 0 {
		return id
	}
	m.toFront(i)
	m.lru[0].val = m.chase(m.lru[0].val)
	return m.lru[0].val
}

func (m *model) purge(p ids.NodeID) {
	for i := range m.lru {
		m.lru[i].val = m.chase(m.lru[i].val)
	}
	kept := m.lru[:0]
	for _, e := range m.lru {
		if e.val.Node != p {
			kept = append(kept, e)
		}
	}
	m.lru = kept
}

// origins resolves and returns the origin entries, as ScanOrigin does.
func (m *model) origins() map[ids.ActivityID]ids.ActivityID {
	out := make(map[ids.ActivityID]ids.ActivityID)
	for i := range m.lru {
		if e := &m.lru[i]; e.origin {
			e.val = m.chase(e.val)
			out[e.key] = e.val
		}
	}
	return out
}

// runCacheOps drives a Cache and the oracle with the operations encoded
// in data, three bytes each, over a universe small enough that chains,
// cycles, identities and evictions all happen. After every operation the
// two must hold the same mappings; every Resolve must also answer with an
// identity the caller was actually told about.
func runCacheOps(t *testing.T, capacity int, data []byte) {
	t.Helper()
	c, m := NewCache(capacity), &model{cap: capacity}
	// told[a] lists every b some Add(a, b) named: the ground truth a
	// Resolve may follow, evictions or not.
	told := make(map[ids.ActivityID][]ids.ActivityID)
	reachable := func(from, to ids.ActivityID) bool {
		seen := map[ids.ActivityID]bool{from: true}
		for todo := []ids.ActivityID{from}; len(todo) > 0; todo = todo[1:] {
			if todo[0] == to {
				return true
			}
			for _, next := range told[todo[0]] {
				if !seen[next] {
					seen[next] = true
					todo = append(todo, next)
				}
			}
		}
		return false
	}
	id := func(b byte) ids.ActivityID { return aid(uint32(b)%3, uint32(b>>2)%5) }
	var cursor uint32
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		a, b := id(data[1]), id(data[2])
		switch op := data[0] % 8; op {
		case 0, 1, 2, 3:
			origin := op == 3
			if origin {
				c.AddOrigin(a, b)
			} else {
				c.Add(a, b)
			}
			m.add(a, b, origin)
			told[a] = append(told[a], b)
		case 4, 5:
			got, want := c.Resolve(a), m.resolve(a)
			if got != want {
				t.Fatalf("step %d: Resolve(%v) = %v, oracle %v", step, a, got, want)
			}
			if !reachable(a, got) {
				t.Fatalf("step %d: Resolve(%v) = %v, an identity no Add led to", step, a, got)
			}
			if again := c.Resolve(a); again != got {
				t.Fatalf("step %d: Resolve(%v) = %v, then %v", step, a, got, again)
			}
		case 6:
			c.PurgeTargets(a.Node)
			m.purge(a.Node)
		case 7:
			// One full lap from wherever the last one stopped.
			got, next := c.ScanOrigin(cursor, capacity+1)
			cursor = next
			want := m.origins()
			if len(got) != len(want) {
				t.Fatalf("step %d: ScanOrigin returned %d entries, oracle has %d", step, len(got), len(want))
			}
			for _, rb := range got {
				if v, ok := want[rb.Old]; !ok || v != rb.New {
					t.Fatalf("step %d: ScanOrigin returned %v→%v, oracle %v (present %v)", step, rb.Old, rb.New, v, ok)
				}
			}
		}
		if c.Len() != len(m.lru) || c.Len() > capacity {
			t.Fatalf("step %d: Len = %d, oracle %d, capacity %d", step, c.Len(), len(m.lru), capacity)
		}
		stored := make(map[ids.ActivityID]ids.ActivityID)
		for _, rb := range c.Snapshot() {
			stored[rb.Old] = rb.New
		}
		for _, e := range m.lru {
			if v, ok := stored[e.key]; !ok || v != e.val {
				t.Fatalf("step %d: table holds %v→%v (present %v), oracle %v", step, e.key, v, ok, e.val)
			}
		}
	}
}

func TestCacheOpsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for run := 0; run < 300; run++ {
		data := make([]byte, 3*400)
		rng.Read(data)
		runCacheOps(t, 1+run%7, data)
	}
}

// FuzzCacheOps lets the fuzzer pick the operation sequence and the
// capacity of the same oracle comparison.
func FuzzCacheOps(f *testing.F) {
	// First byte: capacity. Then (op, a, b) triples; identities 1, 5, 9,
	// 13, 17 decode to five distinct non-nil IDs.
	f.Add([]byte{6, 0, 1, 5, 0, 5, 9, 0, 9, 13, 4, 1, 0})          // a chain, then a lookup
	f.Add([]byte{6, 0, 1, 5, 0, 5, 1, 4, 1, 0})                    // a cycle
	f.Add([]byte{6, 3, 1, 5, 3, 9, 13, 7, 0, 0, 6, 5, 0, 7, 0, 0}) // origin entries: scan, purge, scan
	f.Add([]byte{1, 0, 1, 5, 0, 5, 9, 0, 9, 13, 4, 1, 0, 4, 5, 0}) // capacity 2: a chain longer than the table
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runCacheOps(t, 1+int(data[0])%8, data[1:])
	})
}

// TestCacheLazyCompression pins lazy compression by hand: Add touches no
// other entry, a multi-hop chain collapses in the entry a Resolve started
// from, and eviction takes a chain from its head (an entry is always
// older than the hop it points at, or it would have been written past
// it), so what is left of the chain still resolves.
func TestCacheLazyCompression(t *testing.T) {
	stored := func(c *Cache, key ids.ActivityID) ids.ActivityID {
		for _, rb := range c.Snapshot() {
			if rb.Old == key {
				return rb.New
			}
		}
		return ids.Nil
	}
	a, b, d, e := aid(1, 1), aid(2, 1), aid(3, 1), aid(4, 1)

	c := NewCache(8)
	c.Add(a, b)
	c.Add(b, d)
	c.Add(d, e)
	if got := stored(c, a); got != b {
		t.Fatalf("Add re-pointed another entry: a→%v, want %v", got, b)
	}
	if got := c.Resolve(a); got != e {
		t.Fatalf("Resolve(a) = %v, want %v", got, e)
	}
	if got := stored(c, a); got != e {
		t.Fatalf("after Resolve the entry holds a→%v, want %v", got, e)
	}

	c = NewCache(3)
	c.Add(a, b)
	c.Add(b, d)
	c.Add(d, e)
	c.Add(aid(9, 9), aid(9, 8)) // evicts a→b
	if got := c.Resolve(a); got != a {
		t.Fatalf("Resolve(a) after its entry was evicted = %v, want %v", got, a)
	}
	if got := c.Resolve(b); got != e {
		t.Fatalf("Resolve(b) through the rest of the chain = %v, want %v", got, e)
	}
}

// TestCacheScanOriginRoundRobin: successive short scans visit every
// origin entry once per lap, skip the learned ones, and survive the slab
// changing under the cursor.
func TestCacheScanOriginRoundRobin(t *testing.T) {
	c := NewCache(16)
	for i := uint32(1); i <= 10; i++ {
		if i%2 == 0 {
			c.Add(aid(1, i), aid(2, i))
		} else {
			c.AddOrigin(aid(1, i), aid(2, i))
		}
	}
	seen := make(map[ids.ActivityID]int)
	var cursor uint32
	for lap := 0; lap < 3; lap++ { // 5 origin entries, 2 per call: 3 calls cover a lap
		got, next := c.ScanOrigin(cursor, 2)
		cursor = next
		for _, rb := range got {
			seen[rb.Old]++
		}
	}
	for i := uint32(1); i <= 10; i++ {
		want := int(i % 2)
		if n := seen[aid(1, i)]; n < want || (want == 0 && n != 0) {
			t.Fatalf("entry %d scanned %d times (origin: %v)", i, n, want == 1)
		}
	}
	c.PurgeTargets(2) // empties the table; the cursor now points at free slots
	if got, _ := c.ScanOrigin(cursor, 8); len(got) != 0 {
		t.Fatalf("scan of an emptied table returned %v", got)
	}
	if got, _ := NewCache(4).ScanOrigin(7, 8); len(got) != 0 {
		t.Fatalf("scan of a new table returned %v", got)
	}
}
