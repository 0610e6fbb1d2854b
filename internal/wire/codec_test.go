package wire

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// tagged is the kitchen-sink struct the property tests round-trip: every
// codec mapping, tags included, plus nested refs the DGC must see.
type tagged struct {
	B     bool    `wire:"b"`
	I     int64   `wire:"i"`
	U     uint16  `wire:"u"`
	F     float64 `wire:"f"`
	S     string  `wire:"s"`
	Blob  []byte  `wire:"blob"`
	Vec   []float64
	Words []string         `wire:"words"`
	Pairs map[string]int64 `wire:"pairs"`
	Inner *taggedInner     `wire:"inner"`
	Self  ids.ActivityID   `wire:"self"`
	Peers []ids.ActivityID `wire:"peers"`
	Raw   Value            `wire:"raw"`
	Skip  string           `wire:"-"`
	Opt   string           `wire:",omitempty"`
	small int              // unexported: ignored
}

type taggedInner struct {
	Name string `wire:"name"`
	Next ids.ActivityID
}

// Generate implements quick.Generator so the fuzz inputs exercise nil
// maps/slices/pointers and ref-bearing branches with equal probability.
func (tagged) Generate(r *rand.Rand, size int) reflect.Value {
	v := tagged{
		B:    r.Intn(2) == 0,
		I:    r.Int63() - r.Int63(),
		U:    uint16(r.Uint32()),
		F:    r.NormFloat64(),
		S:    randString(r),
		Self: randID(r),
		Raw:  List(Int(r.Int63n(100)), String("raw")),
	}
	if r.Intn(2) == 0 {
		v.Blob = randBytes(r)
	}
	if r.Intn(2) == 0 {
		v.Vec = []float64{r.Float64(), r.Float64()}
	}
	for i := r.Intn(4); i > 0; i-- {
		v.Words = append(v.Words, randString(r))
	}
	if n := r.Intn(4); n > 0 {
		v.Pairs = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			v.Pairs[randString(r)] = r.Int63()
		}
	}
	if r.Intn(2) == 0 {
		v.Inner = &taggedInner{Name: randString(r), Next: randID(r)}
	}
	for i := r.Intn(3); i > 0; i-- {
		v.Peers = append(v.Peers, randID(r))
	}
	return reflect.ValueOf(v)
}

func mustMarshal(t *testing.T, v any) Value {
	t.Helper()
	mv, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func randString(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzäöü-_ 0123456789"
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func randBytes(r *rand.Rand) []byte {
	b := make([]byte, 1+r.Intn(16))
	r.Read(b)
	return b
}

func randID(r *rand.Rand) ids.ActivityID {
	return ids.ActivityID{Node: ids.NodeID(1 + r.Intn(64)), Seq: uint32(1 + r.Intn(1<<16))}
}

// refCount returns how many Ref nodes the struct marshals to — the number
// of targets the decoded value's Refs must report.
func (v tagged) refCount() int {
	n := 1 + len(v.Peers) // Self + Peers
	if v.Inner != nil {
		n++ // Inner.Next
	}
	return n + len(v.Raw.Refs(nil))
}

// normalize maps a round-tripped struct back onto the semantic identity
// the codec promises: empty and nil slices/maps are indistinguishable on
// the wire, and []float64 survives via the packed blob representation.
func normalize(v tagged) tagged {
	v.Skip = ""
	v.small = 0
	if len(v.Blob) == 0 {
		v.Blob = nil
	}
	if len(v.Vec) == 0 {
		v.Vec = nil
	}
	if len(v.Words) == 0 {
		v.Words = nil
	}
	if len(v.Pairs) == 0 {
		v.Pairs = nil
	}
	if len(v.Peers) == 0 {
		v.Peers = nil
	}
	return v
}

// TestCodecRoundTripProperty is the satellite property test: arbitrary
// tagged structs survive Marshal → Encode → Decode → Unmarshal, and the
// decoded value's Refs reports every Ref exactly once.
func TestCodecRoundTripProperty(t *testing.T) {
	prop := func(in tagged) bool {
		mv, err := Marshal(in)
		if err != nil {
			t.Logf("Marshal: %v", err)
			return false
		}
		buf := Encode(nil, mv)

		var dec Decoder
		decoded, err := dec.Decode(buf)
		if err != nil {
			t.Logf("Decode: %v", err)
			return false
		}

		var out tagged
		out.Skip = "must survive, tag skips it"
		if err := Unmarshal(decoded, &out); err != nil {
			t.Logf("Unmarshal: %v", err)
			return false
		}
		out.Skip = ""

		want := normalize(in)
		if !reflect.DeepEqual(normalize(out), want) {
			t.Logf("round-trip mismatch:\n in=%+v\nout=%+v", want, normalize(out))
			return false
		}
		refs := decoded.Refs(nil)
		if len(refs) != in.refCount() {
			t.Logf("Refs reported %d targets, want %d", len(refs), in.refCount())
			return false
		}
		// Exactly once per Ref *occurrence*, in the marshaled value's
		// own order.
		if !reflect.DeepEqual(refs, mv.Refs(nil)) {
			t.Logf("decoded Refs %v, marshaled %v", refs, mv.Refs(nil))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCodecDecodeUnmarshal feeds arbitrary bytes through Decode and, when
// they parse, through Unmarshal into the kitchen-sink struct: neither may
// panic, and a successful decode must re-encode to an equal value.
func FuzzCodecDecodeUnmarshal(f *testing.F) {
	seedStruct, err := Marshal(tagged{
		I: 7, S: "seed", Vec: []float64{1, 2}, Self: ids.ActivityID{Node: 1, Seq: 2},
		Inner: &taggedInner{Name: "x", Next: ids.ActivityID{Node: 3, Seq: 4}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(Encode(nil, seedStruct))
	f.Add(Encode(nil, List(Int(1), Dict(map[string]Value{"k": Float(2.5)}))))
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		v, err := dec.Decode(data)
		if err != nil {
			return
		}
		enc := Encode(nil, v)
		if got := EncodedSize(v); got != len(enc) {
			t.Fatalf("EncodedSize = %d, Encode wrote %d bytes", got, len(enc))
		}
		round, err := dec.Decode(enc)
		if err != nil || !round.Equal(v) {
			t.Fatalf("re-encode round-trip failed: %v (err %v)", round, err)
		}
		var out tagged
		_ = Unmarshal(v, &out) // must not panic; errors are fine
		var anything any
		if err := Unmarshal(v, &anything); err != nil {
			t.Fatalf("Unmarshal into any must accept every model value: %v", err)
		}
	})
}

func TestMarshalScalarsAndPassthrough(t *testing.T) {
	id := ids.ActivityID{Node: 5, Seq: 17}
	cases := []struct {
		in   any
		want Value
	}{
		{nil, Null()},
		{true, Bool(true)},
		{int(-3), Int(-3)},
		{int8(7), Int(7)},
		{uint64(9), Int(9)},
		{3.5, Float(3.5)},
		{float32(2), Float(2)},
		{"hi", String("hi")},
		{[]byte{1, 2}, Bytes([]byte{1, 2})},
		{[]float64{1, 2}, Floats([]float64{1, 2})},
		{[]int{1, 2}, List(Int(1), Int(2))},
		{[2]string{"a", "b"}, List(String("a"), String("b"))},
		{map[string]bool{"x": true}, Dict(map[string]Value{"x": Bool(true)})},
		{id, Ref(id)},
		{Ref(id), Ref(id)},
		{String("passthrough"), String("passthrough")},
		{(*taggedInner)(nil), Null()},
	}
	for _, c := range cases {
		got, err := Marshal(c.in)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", c.in, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("Marshal(%#v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMarshalErrors(t *testing.T) {
	for _, in := range []any{
		make(chan int),
		func() {},
		map[int]string{1: "x"},
		uint64(math.MaxUint64),
		struct{ C chan int }{},
	} {
		if _, err := Marshal(in); !errors.Is(err, ErrMarshal) {
			t.Errorf("Marshal(%T) err = %v, want ErrMarshal", in, err)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s string
	if err := Unmarshal(Int(1), &s); !errors.Is(err, ErrUnmarshal) {
		t.Errorf("int→string err = %v, want ErrUnmarshal", err)
	}
	var i8 int8
	if err := Unmarshal(Int(1000), &i8); !errors.Is(err, ErrUnmarshal) {
		t.Errorf("overflow err = %v, want ErrUnmarshal", err)
	}
	var u uint8
	if err := Unmarshal(Int(-1), &u); !errors.Is(err, ErrUnmarshal) {
		t.Errorf("negative→uint err = %v, want ErrUnmarshal", err)
	}
	if err := Unmarshal(Int(1), (*int)(nil)); !errors.Is(err, ErrUnmarshal) {
		t.Errorf("nil target err = %v, want ErrUnmarshal", err)
	}
	var notPtr int
	if err := Unmarshal(Int(1), notPtr); !errors.Is(err, ErrUnmarshal) {
		t.Errorf("non-pointer target err = %v, want ErrUnmarshal", err)
	}
	var id ids.ActivityID
	if err := Unmarshal(Int(1), &id); !errors.Is(err, ErrUnmarshal) {
		t.Errorf("int→ActivityID err = %v, want ErrUnmarshal", err)
	}
}

func TestUnmarshalPartialStruct(t *testing.T) {
	// Absent dict keys leave fields untouched; unknown keys are ignored.
	v := Dict(map[string]Value{"i": Int(9), "unknown": String("x")})
	out := tagged{S: "keep me"}
	if err := Unmarshal(v, &out); err != nil {
		t.Fatal(err)
	}
	if out.I != 9 || out.S != "keep me" {
		t.Fatalf("partial unmarshal: %+v", out)
	}
}

func TestUnmarshalIntoAny(t *testing.T) {
	id := ids.ActivityID{Node: 2, Seq: 3}
	v := Dict(map[string]Value{
		"n":   Int(4),
		"f":   Float(0.5),
		"who": Ref(id),
		"l":   List(Bool(true), Null()),
	})
	var out any
	if err := Unmarshal(v, &out); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"n":   int64(4),
		"f":   0.5,
		"who": id,
		"l":   []any{true, nil},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %#v, want %#v", out, want)
	}
}

func TestUnmarshalFloatSliceForms(t *testing.T) {
	// Both the packed-blob and the plain-list representations must land in
	// []float64.
	want := []float64{1.5, -2.5}
	var a, b []float64
	if err := Unmarshal(Floats(want), &a); err != nil || !reflect.DeepEqual(a, want) {
		t.Fatalf("packed: %v %v", a, err)
	}
	if err := Unmarshal(List(Float(1.5), Float(-2.5)), &b); err != nil || !reflect.DeepEqual(b, want) {
		t.Fatalf("list: %v %v", b, err)
	}
	var bad []float64
	if err := Unmarshal(Bytes([]byte{1, 2, 3}), &bad); !errors.Is(err, ErrUnmarshal) {
		t.Fatalf("odd blob err = %v, want ErrUnmarshal", err)
	}
}
