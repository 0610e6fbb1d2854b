package wire

// Tests and fuzzing for the first-class future value kind (KindFuture):
// codec round trips, the Refs/FutureRefs walks of decoded values, and the
// struct-codec passthrough forms.

import (
	"slices"
	"testing"

	"repro/internal/ids"
)

func testFR(fn, fs, on, os uint32) FutureRef {
	return FutureRef{
		ID:    ids.FutureID{Node: ids.NodeID(fn), Seq: fs},
		Owner: ids.ActivityID{Node: ids.NodeID(on), Seq: os},
	}
}

func TestFutureValueRoundTrip(t *testing.T) {
	fr := testFR(3, 41, 7, 9)
	v := FutureVal(fr)
	if v.Kind() != KindFuture {
		t.Fatalf("kind = %v", v.Kind())
	}
	buf := Encode(nil, v)
	var dec Decoder
	got, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("round trip: %v != %v", got, v)
	}
	back, ok := got.AsFutureRef()
	if !ok || back != fr {
		t.Fatalf("AsFutureRef = %v, %v", back, ok)
	}
	if len(Encode(nil, v)) != EncodedSize(v) {
		t.Fatalf("EncodedSize mismatch")
	}
}

func TestFutureValueWalks(t *testing.T) {
	fr1, fr2 := testFR(1, 1, 9, 1), testFR(2, 2, 9, 2)
	v := Dict(map[string]Value{
		"a": FutureVal(fr1),
		"b": List(Int(1), FutureVal(fr2)),
		"c": Ref(ids.ActivityID{Node: 5, Seq: 5}),
	})
	refs := v.Refs(nil)
	if len(refs) != 3 {
		t.Fatalf("Refs = %v", refs)
	}
	if refs[0] != fr1.Owner || refs[1] != fr2.Owner {
		t.Fatalf("future owners missing from Refs: %v", refs)
	}
	frs := v.FutureRefs(nil)
	if len(frs) != 2 || frs[0] != fr1 || frs[1] != fr2 {
		t.Fatalf("FutureRefs = %v", frs)
	}
	if got := DeepCopy(v); !got.Equal(v) {
		t.Fatalf("DeepCopy lost structure: %v", got)
	}
}

// fakeFuture implements FutureSource for the marshal passthrough test.
type fakeFuture struct {
	fr FutureRef
	ok bool
}

func (f *fakeFuture) WireFutureRef() (FutureRef, bool) { return f.fr, f.ok }

func TestFutureCodecPassthrough(t *testing.T) {
	fr := testFR(6, 12, 6, 3)
	type payload struct {
		Fut  FutureRef `wire:"fut"`
		Name string    `wire:"name"`
	}
	v, err := Marshal(payload{Fut: fr, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.Get("fut").AsFutureRef()
	if !ok || got != fr {
		t.Fatalf("marshaled fut = %v", v.Get("fut"))
	}
	var back payload
	if err := Unmarshal(v, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fut != fr || back.Name != "x" {
		t.Fatalf("unmarshal = %+v", back)
	}
	// A runtime handle marshals through the FutureSource interface; one
	// with no wire identity marshals as Null.
	hv, err := Marshal(&fakeFuture{fr: fr, ok: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := hv.AsFutureRef(); !ok || got != fr {
		t.Fatalf("FutureSource marshal = %v", hv)
	}
	nv, err := Marshal(&fakeFuture{})
	if err != nil || !nv.IsNull() {
		t.Fatalf("identity-less future marshal = %v, %v", nv, err)
	}
	var nilFut *fakeFuture
	nv, err = Marshal(struct{ F *fakeFuture }{F: nilFut})
	if err != nil || !nv.Get("F").IsNull() {
		t.Fatalf("nil future field marshal = %v, %v", nv, err)
	}
	// any-target unmarshal yields the FutureRef itself.
	var dyn any
	if err := Unmarshal(FutureVal(fr), &dyn); err != nil {
		t.Fatal(err)
	}
	if got, ok := dyn.(FutureRef); !ok || got != fr {
		t.Fatalf("any unmarshal = %#v", dyn)
	}
}

// refsIn is the byte walk Value.Refs is held to: every Ref target and
// future owner of the one canonical value at r, in encoding order.
func refsIn(r *Reader, dst []ids.ActivityID) []ids.ActivityID {
	id := func() ids.ActivityID { return ids.ActivityID{Node: ids.NodeID(r.Uvarint()), Seq: uint32(r.Uvarint())} }
	switch kind := Kind(r.Byte()); kind {
	case KindBool:
		r.Byte()
	case KindInt:
		r.Uvarint()
	case KindFloat:
		r.Next(8)
	case KindString, KindBytes:
		r.Bytes()
	case KindList, KindDict:
		for n := r.Count(r.Len()); n > 0 && r.Err() == nil; n-- {
			if kind == KindDict {
				r.Bytes() // the key
			}
			dst = refsIn(r, dst)
		}
	case KindRef:
		dst = append(dst, id())
	case KindFuture:
		id() // the future's home identity
		dst = append(dst, id())
	}
	return dst
}

// FuzzFutureValue round-trips arbitrary bytes through the decoder and,
// for every accepted value, checks that encode(decode(x)) is a fixpoint
// and that the decoded value's walks agree with walks of its bytes: Refs
// (future owners included) with refsIn, FutureRefs with FutureRefsIn.
// This is the CI gate for the future-value encoding (WIRE.md §6).
func FuzzFutureValue(f *testing.F) {
	seeds := []Value{
		FutureVal(testFR(1, 1, 1, 1)),
		FutureVal(testFR(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)),
		FutureVal(FutureRef{}),
		List(FutureVal(testFR(2, 3, 4, 5)), Ref(ids.ActivityID{Node: 1, Seq: 2})),
		Dict(map[string]Value{
			"f": FutureVal(testFR(9, 9, 9, 9)),
			"l": List(Int(1), FutureVal(testFR(8, 7, 6, 5))),
		}),
	}
	for _, v := range seeds {
		f.Add(Encode(nil, v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		v, err := dec.Decode(data)
		if err != nil {
			return
		}
		enc := Encode(nil, v)
		again, err := dec.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !again.Equal(v) {
			t.Fatalf("decode(encode(v)) != v:\n%v\n%v", again, v)
		}
		// The canonical encoding is in the walks' order (sorted dict
		// keys, depth first).
		var r Reader
		r.Reset(enc, ErrTruncated)
		if walk, held := v.Refs(nil), refsIn(&r, nil); r.Done() != nil || !slices.Equal(walk, held) {
			t.Fatalf("Refs = %v, the bytes hold %v (walk error %v)", walk, held, r.Done())
		}
		if walk, held := v.FutureRefs(nil), FutureRefsIn(enc, nil); !slices.Equal(walk, held) {
			t.Fatalf("FutureRefs = %v, the bytes hold %v", walk, held)
		}
		// A future value must survive the struct codec both ways.
		var fr FutureRef
		if fv, ok := v.AsFutureRef(); ok {
			if err := Unmarshal(v, &fr); err != nil || fr != fv {
				t.Fatalf("FutureRef unmarshal = %v, %v", fr, err)
			}
			back, err := Marshal(fr)
			if err != nil || !back.Equal(v) {
				t.Fatalf("FutureRef marshal = %v, %v", back, err)
			}
		}
	})
}
