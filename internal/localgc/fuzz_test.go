package localgc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

// The pin-table oracle: a brute-force model that keeps every pin's value
// and root count, frees the unrooted ones at each Collect, and then
// recomputes the live keys by walking every surviving pin with
// Value.Refs and Value.FutureRefs. The table must report exactly the keys
// that left that set as deaths, answer HasTag/HasFutureTag from it, and
// leave its edge sink holding exactly its tag keys.

// Owners 1 and 33, and 2 and 34, share a shard: future keys are per shard.
var (
	opOwners  = []ids.ActivityID{{Node: 1, Seq: 1}, {Node: 1, Seq: 2}, {Node: 1, Seq: 3}, {Node: 1, Seq: 33}, {Node: 1, Seq: 34}}
	opTargets = []ids.ActivityID{{Node: 9, Seq: 1}, {Node: 9, Seq: 2}, {Node: 9, Seq: 3}, {Node: 9, Seq: 4}, {Node: 1, Seq: 1}}
	opFutures = []ids.FutureID{{}, {Node: 9, Seq: 1}, {Node: 9, Seq: 2}, {Node: 9, Seq: 3}}
)

type modelPin struct {
	owner ids.ActivityID
	val   wire.Value
	ref   ObjRef
	roots []RootID
	freed bool
}

// futKey is a future key of the oracle: the future and the shard it is
// counted in.
type futKey struct {
	shard *shard
	fut   ids.FutureID
}

// opValue builds a value of up to four elements from two bytes: b picks
// the length and the targets, c the kind of each element.
func opValue(a, b, c byte) wire.Value {
	elems := make([]wire.Value, 1+b%4)
	for i := range elems {
		target := opTargets[(int(b>>2)+i)%len(opTargets)]
		switch (c >> (2 * i)) & 3 {
		case 0:
			elems[i] = wire.Int(int64(i))
		case 1:
			elems[i] = wire.Ref(target)
		case 2:
			elems[i] = wire.FutureVal(wire.FutureRef{ID: opFutures[(int(a>>3)+i)%len(opFutures)], Owner: target})
		default:
			elems[i] = wire.Dict(map[string]wire.Value{"r": wire.Ref(target), "n": wire.Null()})
		}
	}
	return wire.List(elems...)
}

// runPinOps interprets data as (op, a, b, c) quadruples against a fresh
// table and the oracle.
func runPinOps(t *testing.T, data []byte) {
	edges := newEdgeLog(t)
	h := New(edges)
	var pins []*modelPin
	alive := make(map[TagDeath]bool)
	aliveFut := make(map[futKey]bool)
	addKeys := func(p *modelPin) {
		for _, target := range p.val.Refs(nil) {
			alive[TagDeath{Owner: p.owner, Target: target}] = true
		}
		for _, fr := range p.val.FutureRefs(nil) {
			aliveFut[futKey{h.shardOf(p.owner), fr.ID}] = true
		}
	}
	pick := func(a byte) *modelPin {
		if len(pins) == 0 {
			return nil
		}
		return pins[int(a)%len(pins)]
	}
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0]%5, data[1], data[2], data[3]
		switch op {
		case 0: // intern, rooted or not
			p := &modelPin{owner: opOwners[int(a)%len(opOwners)], val: opValue(a, b, c)}
			if a&0x80 != 0 {
				var root RootID
				p.ref, root = h.InternRooted(p.owner, p.val)
				p.roots = append(p.roots, root)
			} else {
				p.ref = h.Intern(p.owner, p.val)
			}
			pins = append(pins, p)
			addKeys(p)
		case 1: // root a pin
			if p := pick(a); p != nil && !p.freed {
				p.roots = append(p.roots, h.AddRoot(p.ref))
			}
		case 2: // unroot a pin
			if p := pick(a); p != nil && len(p.roots) > 0 {
				h.RemoveRoot(p.roots[0])
				p.roots = p.roots[1:]
			}
		case 3: // rebind
			old, new := opTargets[int(a)%len(opTargets)], opTargets[int(b)%len(opTargets)]
			h.RebindStubs(old, new)
			for _, p := range pins {
				if !p.freed && old != new {
					p.val = wire.Rebind(p.val, old, new)
					addKeys(p)
				}
			}
		case 4:
			checkCollect(t, h, edges, pins, alive, aliveFut)
		}
	}
	checkCollect(t, h, edges, pins, alive, aliveFut)
}

// checkCollect runs Collect on the table and on the oracle and compares
// what they report and what they hold afterwards. alive and aliveFut
// hold the keys alive before, and on return after, the collection.
func checkCollect(t *testing.T, h *Heap, edges *edgeLog, pins []*modelPin, alive map[TagDeath]bool, aliveFut map[futKey]bool) {
	t.Helper()
	st := h.Collect()
	after := make(map[TagDeath]bool)
	afterFut := make(map[futKey]bool)
	live := 0
	for _, p := range pins {
		if p.freed || len(p.roots) == 0 {
			p.freed = true
			if !h.Materialize(p.ref).IsNull() {
				t.Fatalf("pin %d survived the collection unrooted", p.ref)
			}
			continue
		}
		live++
		if got := h.Materialize(p.ref); !got.Equal(p.val) {
			t.Fatalf("pin %d materializes %v, want %v", p.ref, got, p.val)
		}
		for _, target := range p.val.Refs(nil) {
			after[TagDeath{Owner: p.owner, Target: target}] = true
		}
		for _, fr := range p.val.FutureRefs(nil) {
			afterFut[futKey{h.shardOf(p.owner), fr.ID}] = true
		}
	}
	if st.Live != live {
		t.Fatalf("Live = %d, the oracle keeps %d pins", st.Live, live)
	}
	var wantDeaths []TagDeath
	for k := range alive {
		if !after[k] {
			wantDeaths = append(wantDeaths, k)
		}
	}
	var wantFutDeaths []ids.FutureID
	for k := range aliveFut {
		if !afterFut[k] {
			wantFutDeaths = append(wantFutDeaths, k.fut)
		}
	}
	tagOrder := func(x, y TagDeath) int {
		if x.Owner != y.Owner {
			return x.Owner.Compare(y.Owner)
		}
		return x.Target.Compare(y.Target)
	}
	futOrder := func(x, y ids.FutureID) int {
		return ids.ActivityID{Node: x.Node, Seq: x.Seq}.Compare(ids.ActivityID{Node: y.Node, Seq: y.Seq})
	}
	gotDeaths := slices.SortedFunc(slices.Values(st.TagDeaths), tagOrder)
	slices.SortFunc(wantDeaths, tagOrder)
	gotFut := slices.SortedFunc(slices.Values(st.FutureDeaths), futOrder)
	slices.SortFunc(wantFutDeaths, futOrder)
	if !slices.Equal(gotDeaths, wantDeaths) {
		t.Fatalf("tag deaths %v, the oracle expects %v", gotDeaths, wantDeaths)
	}
	if !slices.Equal(gotFut, wantFutDeaths) {
		t.Fatalf("future deaths %v, the oracle expects %v", gotFut, wantFutDeaths)
	}
	for _, o := range opOwners {
		for _, target := range opTargets {
			k := TagDeath{Owner: o, Target: target}
			if h.HasTag(o, target) != after[k] {
				t.Fatalf("HasTag(%v, %v) = %v, the oracle says %v", o, target, !after[k], after[k])
			}
		}
	}
	for _, f := range opFutures {
		want := false
		for k := range afterFut {
			want = want || k.fut == f
		}
		if h.HasFutureTag(f) != want {
			t.Fatalf("HasFutureTag(%v) = %v, the oracle says %v", f, !want, want)
		}
	}
	edges.mu.Lock()
	defer edges.mu.Unlock()
	if len(edges.edges) != len(after) {
		t.Fatalf("the edge sink holds %v, the live tag keys are %v", edges.edges, after)
	}
	for k := range after {
		if !edges.edges[k] {
			t.Fatalf("the edge sink lacks %v", k)
		}
	}
	clear(alive)
	clear(aliveFut)
	for k := range after {
		alive[k] = true
	}
	for k := range afterFut {
		aliveFut[k] = true
	}
}

func TestPinOpsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for run := 0; run < 300; run++ {
		data := make([]byte, 4*200)
		rng.Read(data)
		runPinOps(t, data)
	}
}

// FuzzPinOps lets the fuzzer pick the operation sequence of the same
// oracle comparison.
func FuzzPinOps(f *testing.F) {
	// (op, a, b, c): 0 intern (a's top bit roots), 1 root, 2 unroot,
	// 3 rebind, 4 collect.
	f.Add([]byte{0, 0x80, 1, 0x55, 4, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0})       // a rooted stub list, dropped
	f.Add([]byte{0, 0x80, 3, 0xaa, 3, 0, 1, 0, 4, 0, 0, 0, 2, 0, 0, 0})       // futures, rebound, dropped
	f.Add([]byte{0, 0x01, 2, 0xff, 0, 0x84, 2, 0x05, 1, 0, 0, 0, 4, 0, 0, 0}) // shared shard, late root
	f.Fuzz(func(t *testing.T, data []byte) {
		runPinOps(t, data)
	})
}
