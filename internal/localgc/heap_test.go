package localgc

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

var (
	owner  = ids.ActivityID{Node: 1, Seq: 1}
	owner2 = ids.ActivityID{Node: 1, Seq: 2}
	remote = ids.ActivityID{Node: 2, Seq: 1}
)

// edgeLog is an Edges sink that keeps the edge set the heap reports. It
// fails the test when the heap adds an edge it already added or removes
// one it never added, and calls onAdd, if set, on every added edge.
type edgeLog struct {
	t     testing.TB
	mu    sync.Mutex
	edges map[TagDeath]bool
	onAdd func(owner, target ids.ActivityID)
}

func newEdgeLog(t testing.TB) *edgeLog {
	return &edgeLog{t: t, edges: make(map[TagDeath]bool)}
}

func (l *edgeLog) Referencer(owner ids.ActivityID) Referencer { return ownerEdges{l, owner} }
func (l *edgeLog) Now() time.Time                             { return time.Time{} }

// has reports whether the sink holds the edge owner → target.
func (l *edgeLog) has(owner, target ids.ActivityID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.edges[TagDeath{Owner: owner, Target: target}]
}

type ownerEdges struct {
	l     *edgeLog
	owner ids.ActivityID
}

func (o ownerEdges) AddReferenced(target ids.ActivityID, _ time.Time) {
	o.l.mu.Lock()
	e := TagDeath{Owner: o.owner, Target: target}
	if o.l.edges[e] {
		o.l.t.Errorf("edge %v added twice", e)
	}
	o.l.edges[e] = true
	onAdd := o.l.onAdd
	o.l.mu.Unlock()
	if onAdd != nil {
		onAdd(o.owner, target)
	}
}

func (o ownerEdges) LostReferenced(target ids.ActivityID, _ time.Time) {
	o.l.mu.Lock()
	defer o.l.mu.Unlock()
	e := TagDeath{Owner: o.owner, Target: target}
	if !o.l.edges[e] {
		o.l.t.Errorf("edge %v removed but never added", e)
	}
	delete(o.l.edges, e)
}

func TestInternMaterializeRoundTrip(t *testing.T) {
	h := New(nil)
	v := wire.Dict(map[string]wire.Value{
		"n":   wire.Int(7),
		"xs":  wire.List(wire.String("a"), wire.Float(1.5)),
		"ref": wire.Ref(remote),
	})
	ref := h.Intern(owner, v)
	got := h.Materialize(ref)
	if !got.Equal(v) {
		t.Fatalf("materialize mismatch:\n got %v\nwant %v", got, v)
	}
}

func TestMaterializeUnknownIsNull(t *testing.T) {
	h := New(nil)
	if !h.Materialize(0).IsNull() || !h.Materialize(999).IsNull() {
		t.Fatal("materializing nil/unknown refs must yield null")
	}
}

func TestCollectFreesUnrooted(t *testing.T) {
	h := New(nil)
	ref := h.Intern(owner, wire.List(wire.Int(1), wire.Int(2)))
	st := h.Collect()
	if st.Live != 0 || st.Freed != 1 {
		t.Fatalf("Live = %d, Freed = %d, want 0 and the one pin", st.Live, st.Freed)
	}
	if !h.Materialize(ref).IsNull() {
		t.Fatal("a freed pin still materializes")
	}
}

func TestCollectKeepsRooted(t *testing.T) {
	h := New(nil)
	ref := h.Intern(owner, wire.List(wire.Int(1), wire.Int(2)))
	root := h.AddRoot(ref)
	st := h.Collect()
	if st.Freed != 0 || st.Live != 1 {
		t.Fatalf("with root: freed=%d live=%d, want 0/1", st.Freed, st.Live)
	}
	h.RemoveRoot(root)
	st = h.Collect()
	if st.Freed != 1 {
		t.Fatalf("after root removal: freed=%d, want 1", st.Freed)
	}
}

func TestSharedTagAcrossStubs(t *testing.T) {
	edges := newEdgeLog(t)
	h := New(edges)
	// Two distinct stubs of the same remote target for the same owner:
	// one tag, one edge.
	_, root1 := h.NewStubRooted(owner, remote)
	_, root2 := h.InternRooted(owner, wire.List(wire.Ref(remote)))

	// Dropping one stub must not kill the tag.
	h.RemoveRoot(root1)
	if st := h.Collect(); len(st.TagDeaths) != 0 {
		t.Fatalf("tag died while one stub is still live: %v", st.TagDeaths)
	}
	if !h.HasTag(owner, remote) || !edges.has(owner, remote) {
		t.Fatal("tag or edge gone while one stub is live")
	}

	// Dropping the last stub kills the tag.
	h.RemoveRoot(root2)
	if !h.HasTag(owner, remote) {
		t.Fatal("the tag died before the sweep")
	}
	st := h.Collect()
	if len(st.TagDeaths) != 1 || st.TagDeaths[0] != (TagDeath{Owner: owner, Target: remote}) {
		t.Fatalf("TagDeaths = %v, want exactly {owner, remote}", st.TagDeaths)
	}
	if h.HasTag(owner, remote) || edges.has(owner, remote) {
		t.Fatal("tag or edge still alive after all stubs were collected")
	}
}

func TestTagsArePerOwner(t *testing.T) {
	// The no-sharing property: owner and owner2 each get their own tag for
	// the same remote target.
	h := New(nil)
	h.NewStubRooted(owner, remote)
	_, root2 := h.NewStubRooted(owner2, remote)
	h.RemoveRoot(root2)
	st := h.Collect()
	if len(st.TagDeaths) != 1 || st.TagDeaths[0].Owner != owner2 {
		t.Fatalf("TagDeaths = %v, want only owner2's tag", st.TagDeaths)
	}
	if !h.HasTag(owner, remote) {
		t.Fatal("owner's tag must survive")
	}
}

// TestTagDeathCallback: the edge sink hears the edge when the first stub
// is pinned and its removal at the sweep that frees the last one.
func TestTagDeathCallback(t *testing.T) {
	edges := newEdgeLog(t)
	h := New(edges)
	root := h.AddRoot(h.Intern(owner, wire.Ref(remote)))
	if !edges.has(owner, remote) {
		t.Fatal("pinning a stub added no edge")
	}
	h.Collect()
	if !edges.has(owner, remote) {
		t.Fatal("premature edge removal")
	}
	h.RemoveRoot(root)
	if !edges.has(owner, remote) {
		t.Fatal("edge removed before the sweep")
	}
	h.Collect()
	if edges.has(owner, remote) {
		t.Fatal("edge survived the sweep that freed its last stub")
	}
}

// TestStubTargets: one value holding stubs to two targets gives its owner
// a tag, and an edge, for each.
func TestStubTargets(t *testing.T) {
	edges := newEdgeLog(t)
	h := New(edges)
	other := ids.ActivityID{Node: 3, Seq: 1}
	h.AddRoot(h.Intern(owner, wire.List(wire.Ref(remote), wire.Ref(other))))
	h.Collect()
	for _, target := range []ids.ActivityID{remote, other} {
		if !h.HasTag(owner, target) || !edges.has(owner, target) {
			t.Fatalf("no tag or edge for %v", target)
		}
	}
}

// TestCycleInHeapIsCollected: values are trees, so the only cycle through
// a heap runs through an activity — a value of owner that references
// owner itself. Unrooted, it is freed like any pin, and the self-tag and
// its edge die with it.
func TestCycleInHeapIsCollected(t *testing.T) {
	edges := newEdgeLog(t)
	h := New(edges)
	_, root := h.InternRooted(owner, wire.List(wire.Ref(owner), wire.List(wire.Ref(owner))))
	if !edges.has(owner, owner) {
		t.Fatal("the self-reference added no edge")
	}
	h.RemoveRoot(root)
	st := h.Collect()
	if st.Freed != 1 || len(st.TagDeaths) != 1 || h.HasTag(owner, owner) || edges.has(owner, owner) {
		t.Fatalf("freed %d, tag deaths %v: the cycle survived", st.Freed, st.TagDeaths)
	}
}

// TestSweepSoundnessRandom is a property test: after a collection, every
// rooted value must still materialize identically, and unrooted interned
// values must be gone.
func TestSweepSoundnessRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		h := New(nil)
		type rooted struct {
			ref ObjRef
			val wire.Value
		}
		var keep []rooted
		var drop []ObjRef
		for i := 0; i < 20; i++ {
			v := randomValue(r, 3)
			ref := h.Intern(owner, v)
			if r.Intn(2) == 0 {
				h.AddRoot(ref)
				keep = append(keep, rooted{ref, v})
			} else {
				drop = append(drop, ref)
			}
		}
		h.Collect()
		for _, k := range keep {
			if got := h.Materialize(k.ref); !got.Equal(k.val) {
				t.Fatalf("iter %d: rooted value corrupted by sweep:\n got %v\nwant %v", iter, got, k.val)
			}
		}
		for _, ref := range drop {
			if !h.Materialize(ref).IsNull() {
				t.Fatalf("iter %d: unrooted pin %d survived the sweep", iter, ref)
			}
		}
		// A second collect with no changes must free nothing.
		if st := h.Collect(); st.Freed != 0 {
			t.Fatalf("iter %d: idempotence violated, freed %d", iter, st.Freed)
		}
	}
}

func randomValue(r *rand.Rand, depth int) wire.Value {
	max := 6
	if depth <= 0 {
		max = 4
	}
	switch r.Intn(max) {
	case 0:
		return wire.Int(r.Int63n(1000))
	case 1:
		return wire.String("s")
	case 2:
		return wire.Ref(ids.ActivityID{Node: ids.NodeID(1 + r.Intn(3)), Seq: uint32(1 + r.Intn(3))})
	case 3:
		return wire.Null()
	case 4:
		n := r.Intn(3)
		elems := make([]wire.Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return wire.List(elems...)
	default:
		m := map[string]wire.Value{}
		for i := 0; i < r.Intn(3); i++ {
			m[string(rune('a'+i))] = randomValue(r, depth-1)
		}
		return wire.Dict(m)
	}
}

func TestHeapString(t *testing.T) {
	h := New(nil)
	h.AddRoot(h.Intern(owner, wire.Int(1)))
	if h.String() == "" {
		t.Fatal("String() must not be empty")
	}
	if st := h.Collect(); st.Live != 1 || h.NumRoots() != 1 {
		t.Fatalf("Live=%d NumRoots=%d, want 1/1", st.Live, h.NumRoots())
	}
}

// TestFutureStubTags pins the future-stub behavior: interning a future
// value pins both the (owner → future-owner) activity tag and the
// node-wide future tag; dropping every pin kills both at the next sweep,
// and Materialize returns the original future value while pinned.
func TestFutureStubTags(t *testing.T) {
	edges := newEdgeLog(t)
	h := New(edges)

	owner := ids.ActivityID{Node: 1, Seq: 1}
	futOwner := ids.ActivityID{Node: 2, Seq: 5}
	fid := ids.FutureID{Node: 2, Seq: 9}
	fv := wire.FutureVal(wire.FutureRef{ID: fid, Owner: futOwner})
	ref, root := h.InternRooted(owner, wire.List(wire.Int(1), fv))

	h.Collect()
	if !h.HasTag(owner, futOwner) || !edges.has(owner, futOwner) {
		t.Fatal("future stub did not pin the owner-activity tag and its edge")
	}
	if !h.HasFutureTag(fid) {
		t.Fatal("future stub did not pin the future tag")
	}
	if got := h.Materialize(ref); !got.At(1).Equal(fv) {
		t.Fatalf("materialized %v", got)
	}

	h.RemoveRoot(root)
	st := h.Collect()
	if h.HasTag(owner, futOwner) || h.HasFutureTag(fid) || edges.has(owner, futOwner) {
		t.Fatal("tags or edge survived the pin drop")
	}
	if len(st.FutureDeaths) != 1 || st.FutureDeaths[0] != fid {
		t.Fatalf("future deaths = %v", st.FutureDeaths)
	}
	if len(st.TagDeaths) != 1 || st.TagDeaths[0] != (TagDeath{Owner: owner, Target: futOwner}) {
		t.Fatalf("no activity tag death for the future owner: %v", st.TagDeaths)
	}
}
