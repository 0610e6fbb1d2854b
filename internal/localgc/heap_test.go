package localgc

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/wire"
)

var (
	owner  = ids.ActivityID{Node: 1, Seq: 1}
	owner2 = ids.ActivityID{Node: 1, Seq: 2}
	remote = ids.ActivityID{Node: 2, Seq: 1}
)

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
	_ = ref
	st := h.Collect()
	if st.Live != 0 {
		t.Fatalf("Live = %d, want 0", st.Live)
	}
	if st.Freed != 3 { // list cell + 2 scalar cells
		t.Fatalf("Freed = %d, want 3", st.Freed)
	}
}

func TestCollectKeepsRooted(t *testing.T) {
	h := New(nil)
	ref := h.Intern(owner, wire.List(wire.Int(1), wire.Int(2)))
	root := h.AddRoot(ref)
	st := h.Collect()
	if st.Freed != 0 || st.Live != 3 {
		t.Fatalf("with root: freed=%d live=%d, want 0/3", st.Freed, st.Live)
	}
	h.RemoveRoot(root)
	st = h.Collect()
	if st.Freed != 3 {
		t.Fatalf("after root removal: freed=%d, want 3", st.Freed)
	}
}

func TestSharedTagAcrossStubs(t *testing.T) {
	h := New(nil)
	// Two distinct stubs of the same remote target for the same owner.
	r1 := h.Intern(owner, wire.Ref(remote))
	r2 := h.Intern(owner, wire.Ref(remote))
	root1 := h.AddRoot(r1)
	root2 := h.AddRoot(r2)
	tag := h.TagFor(owner, remote)
	w := h.NewWeak(tag)

	// Dropping one stub must not kill the tag.
	h.RemoveRoot(root1)
	h.Collect()
	if !w.Alive() {
		t.Fatal("tag died while one stub is still live")
	}
	if !h.HasTag(owner, remote) {
		t.Fatal("HasTag = false while one stub is live")
	}

	// Dropping the last stub kills the tag.
	h.RemoveRoot(root2)
	st := h.Collect()
	if w.Alive() {
		t.Fatal("tag still alive after all stubs were collected")
	}
	if len(st.TagDeaths) != 1 || st.TagDeaths[0] != (TagDeath{Owner: owner, Target: remote}) {
		t.Fatalf("TagDeaths = %v, want exactly {owner, remote}", st.TagDeaths)
	}
}

func TestTagsArePerOwner(t *testing.T) {
	// The no-sharing property: owner and owner2 each get their own tag for
	// the same remote target.
	h := New(nil)
	r1 := h.Intern(owner, wire.Ref(remote))
	r2 := h.Intern(owner2, wire.Ref(remote))
	h.AddRoot(r1)
	root2 := h.AddRoot(r2)
	if h.TagFor(owner, remote) == h.TagFor(owner2, remote) {
		t.Fatal("two owners shared a tag cell; violates no-sharing")
	}
	h.RemoveRoot(root2)
	st := h.Collect()
	if len(st.TagDeaths) != 1 || st.TagDeaths[0].Owner != owner2 {
		t.Fatalf("TagDeaths = %v, want only owner2's tag", st.TagDeaths)
	}
	if !h.HasTag(owner, remote) {
		t.Fatal("owner's tag must survive")
	}
}

func TestTagDeathCallback(t *testing.T) {
	var deaths []TagDeath
	h := New(func(d TagDeath) { deaths = append(deaths, d) })
	ref := h.Intern(owner, wire.Ref(remote))
	root := h.AddRoot(ref)
	h.Collect()
	if len(deaths) != 0 {
		t.Fatalf("premature tag death: %v", deaths)
	}
	h.RemoveRoot(root)
	h.Collect()
	if len(deaths) != 1 || deaths[0].Target != remote {
		t.Fatalf("deaths = %v, want one death for remote", deaths)
	}
}

func TestStubTargets(t *testing.T) {
	h := New(nil)
	other := ids.ActivityID{Node: 3, Seq: 1}
	h.AddRoot(h.Intern(owner, wire.List(wire.Ref(remote), wire.Ref(other))))
	h.Collect()
	targets := h.StubTargets(owner)
	if len(targets) != 2 {
		t.Fatalf("StubTargets = %v, want 2 targets", targets)
	}
}

func TestNewWeakOnUnknownIsDead(t *testing.T) {
	h := New(nil)
	if h.NewWeak(12345).Alive() {
		t.Fatal("weak ref to unknown cell must be dead")
	}
}

func TestCycleInHeapIsCollected(t *testing.T) {
	// The local GC is tracing, so heap-internal cycles are reclaimed. Build
	// one manually via two lists referring to each other.
	h := New(nil)
	a := h.Intern(owner, wire.List())
	b := h.Intern(owner, wire.List())
	s := h.shardOf(owner) // same owner: a and b live in one shard
	s.mu.Lock()
	s.cells[a].children = append(s.cells[a].children, b)
	s.cells[b].children = append(s.cells[b].children, a)
	s.mu.Unlock()
	st := h.Collect()
	if st.Freed != 2 {
		t.Fatalf("freed = %d, want 2 (cycle must be collected)", st.Freed)
	}
}

// TestSweepSoundnessRandom is a property test: after a collection, every
// rooted value must still materialize identically, and unrooted interned
// graphs must be gone.
func TestSweepSoundnessRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		h := New(nil)
		type rooted struct {
			ref ObjRef
			val wire.Value
		}
		var keep []rooted
		for i := 0; i < 20; i++ {
			v := randomValue(r, 3)
			ref := h.Intern(owner, v)
			if r.Intn(2) == 0 {
				h.AddRoot(ref)
				keep = append(keep, rooted{ref, v})
			}
		}
		h.Collect()
		for _, k := range keep {
			if got := h.Materialize(k.ref); !got.Equal(k.val) {
				t.Fatalf("iter %d: rooted value corrupted by sweep:\n got %v\nwant %v", iter, got, k.val)
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
	if h.NumCells() != 1 || h.NumRoots() != 1 {
		t.Fatalf("NumCells=%d NumRoots=%d, want 1/1", h.NumCells(), h.NumRoots())
	}
}

// TestFutureStubTags pins the future-stub behavior: interning a future
// value pins both the (owner → future-owner) activity tag and the
// node-wide future tag; dropping every pin kills both at the next sweep,
// and Materialize rebuilds the original future value while pinned.
func TestFutureStubTags(t *testing.T) {
	var tagDeaths []TagDeath
	h := New(func(d TagDeath) { tagDeaths = append(tagDeaths, d) })

	owner := ids.ActivityID{Node: 1, Seq: 1}
	futOwner := ids.ActivityID{Node: 2, Seq: 5}
	fid := ids.FutureID{Node: 2, Seq: 9}
	fv := wire.FutureVal(wire.FutureRef{ID: fid, Owner: futOwner})
	ref, root := h.InternRooted(owner, wire.List(wire.Int(1), fv))

	h.Collect()
	if !h.HasTag(owner, futOwner) {
		t.Fatal("future stub did not pin the owner-activity tag")
	}
	if !h.HasFutureTag(fid) {
		t.Fatal("future stub did not pin the future tag")
	}
	if got := h.Materialize(ref); !got.At(1).Equal(fv) {
		t.Fatalf("materialized %v", got)
	}

	h.RemoveRoot(root)
	st := h.Collect()
	if h.HasTag(owner, futOwner) || h.HasFutureTag(fid) {
		t.Fatal("tags survived the pin drop")
	}
	if len(st.FutureDeaths) != 1 || st.FutureDeaths[0] != fid {
		t.Fatalf("future deaths = %v", st.FutureDeaths)
	}
	found := false
	for _, d := range tagDeaths {
		if d == (TagDeath{Owner: owner, Target: futOwner}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no activity tag death for the future owner: %v", tagDeaths)
	}
}

// TestCellSize pins the cell at its 208-byte size class: one more field
// would cost every cell of every heap 16 bytes.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got > 208 {
		t.Fatalf("cell is %d bytes, want at most 208", got)
	}
}
