package wire

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ids"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	buf := Encode(nil, v)
	var d Decoder
	got, err := d.Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	return got
}

func TestRoundTripScalars(t *testing.T) {
	values := []Value{
		Null(),
		Bool(true),
		Bool(false),
		Int(0),
		Int(-1),
		Int(math.MaxInt64),
		Int(math.MinInt64),
		Float(0),
		Float(-1.5),
		Float(math.Inf(1)),
		String(""),
		String("héllo"),
		Bytes(nil),
		Bytes([]byte{0, 1, 2, 255}),
		Ref(ids.ActivityID{Node: 3, Seq: 9}),
	}
	for _, v := range values {
		got := roundTrip(t, v)
		if !got.Equal(v) {
			t.Errorf("round-trip %v = %v", v, got)
		}
	}
}

func TestRoundTripNaN(t *testing.T) {
	got := roundTrip(t, Float(math.NaN()))
	if !math.IsNaN(got.AsFloat()) {
		t.Fatalf("NaN round-trip = %v", got)
	}
	if !got.Equal(Float(math.NaN())) {
		t.Fatal("Equal must treat NaN float values as equal for round-trip checks")
	}
}

func TestRoundTripNested(t *testing.T) {
	v := Dict(map[string]Value{
		"xs":  List(Int(1), Int(2), String("three")),
		"ref": Ref(ids.ActivityID{Node: 1, Seq: 2}),
		"sub": Dict(map[string]Value{"k": Bytes([]byte("blob"))}),
		"nil": Null(),
	})
	got := roundTrip(t, v)
	if !got.Equal(v) {
		t.Fatalf("round-trip mismatch:\n got %v\nwant %v", got, v)
	}
}

// randomValue builds an arbitrary value of bounded depth for property
// tests.
func randomValue(r *rand.Rand, depth int) Value {
	max := 9
	if depth <= 0 {
		max = 6 // no containers at the leaves
	}
	switch r.Intn(max) {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		return Float(r.NormFloat64())
	case 4:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return String(string(b))
	case 5:
		return Ref(ids.ActivityID{Node: ids.NodeID(r.Uint32()), Seq: r.Uint32()})
	case 6:
		b := make([]byte, r.Intn(32))
		r.Read(b)
		return Bytes(b)
	case 7:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return List(elems...)
	default:
		n := r.Intn(4)
		m := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			key := string(rune('a' + r.Intn(26)))
			m[key] = randomValue(r, depth-1)
		}
		return Dict(m)
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r, 4))
		},
	}
	prop := func(v Value) bool {
		buf := Encode(nil, v)
		var d Decoder
		got, err := d.Decode(buf)
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomValue(r, 4))
		},
	}
	prop := func(v Value) bool {
		return EncodedSize(v) == len(Encode(nil, v))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestEncodedSizeEveryKind pins the size walk to the encoder case by
// case: every kind, the varint length boundaries, nesting, and dicts.
func TestEncodedSizeEveryKind(t *testing.T) {
	act := ids.ActivityID{Node: 300, Seq: 1 << 20}
	fut := FutureRef{ID: ids.FutureID{Node: 2, Seq: 130}, Owner: act}
	dict := Dict(map[string]Value{
		"list": List(Int(1), List(String("deep"), List())),
		"ref":  Ref(act),
		"":     Dict(nil),
	})
	cases := []Value{
		{}, Null(), Bool(false), Bool(true),
		Int(0), Int(-1), Int(63), Int(64), Int(-64), Int(-65), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Inf(-1)), Float(math.NaN()),
		String(""), String(strings.Repeat("s", 127)), String(strings.Repeat("s", 128)),
		Bytes(nil), Bytes(make([]byte, 4096)), Bytes(make([]byte, 1<<14)), Floats([]float64{1, 2}),
		List(), List(Null(), Bool(true), List(Int(7), Ref(act)), FutureVal(fut)),
		Ref(ids.ActivityID{}), Ref(act), FutureVal(FutureRef{}), FutureVal(fut),
		dict, List(dict, Dict(map[string]Value{"d": dict})),
	}
	for _, v := range cases {
		if got, want := EncodedSize(v), len(Encode(nil, v)); got != want {
			t.Errorf("EncodedSize(%v) = %d, Encode wrote %d bytes", v, got, want)
		}
	}
}

func TestRefsTraversal(t *testing.T) {
	a := ids.ActivityID{Node: 1, Seq: 1}
	b := ids.ActivityID{Node: 1, Seq: 2}
	v := Dict(map[string]Value{
		"x": Ref(a),
		"y": List(Ref(b), Ref(a)),
		"z": Int(0),
	})
	// Depth-first in key order, each occurrence once, and the same for
	// the value's decoding.
	want := []ids.ActivityID{a, b, a}
	if got := v.Refs(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("Refs returned %v, want %v", got, want)
	}
	if got := roundTrip(t, List(Int(3), v)).Refs(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded Refs returned %v, want %v", got, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad tag", []byte{0xEE}, ErrBadTag},
		{"zero tag", []byte{0x00}, ErrBadTag},
		{"truncated bool", []byte{byte(KindBool)}, ErrTruncated},
		{"truncated float", []byte{byte(KindFloat), 1, 2, 3}, ErrTruncated},
		{"truncated string", []byte{byte(KindString), 5, 'a'}, ErrTruncated},
		{"huge list count", []byte{byte(KindList), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, ErrTruncated},
	}
	var d Decoder
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := d.Decode(tt.buf)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Decode error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeTrailing(t *testing.T) {
	buf := Encode(nil, Int(1))
	buf = append(buf, 0xAB)
	var d Decoder
	if _, err := d.Decode(buf); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestDecodePrefix(t *testing.T) {
	buf := Encode(nil, Int(42))
	buf = Encode(buf, String("after"))
	var d Decoder
	v, rest, err := d.DecodePrefix(buf)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 42 {
		t.Fatalf("first value = %v", v)
	}
	v2, err := d.Decode(rest)
	if err != nil {
		t.Fatal(err)
	}
	if v2.AsString() != "after" {
		t.Fatalf("second value = %v", v2)
	}
}

func TestDecodeTooDeep(t *testing.T) {
	// Hand-craft nesting deeper than maxDepth: list(list(list(...))).
	var buf []byte
	for i := 0; i < maxDepth+2; i++ {
		buf = append(buf, byte(KindList), 1)
	}
	buf = append(buf, byte(KindNull))
	var d Decoder
	if _, err := d.Decode(buf); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep", err)
	}
}

func TestDeepCopyIndependence(t *testing.T) {
	orig := Dict(map[string]Value{"xs": List(Bytes([]byte{1, 2, 3}))})
	cp := DeepCopy(orig)
	if !cp.Equal(orig) {
		t.Fatal("DeepCopy must be structurally equal")
	}
	// Mutating the copy's blob must not affect the original.
	cp.Get("xs").At(0).AsBytes()[0] = 99
	if orig.Get("xs").At(0).AsBytes()[0] == 99 {
		t.Fatal("DeepCopy shared the underlying byte slice")
	}
}

func TestFloatsPackUnpack(t *testing.T) {
	xs := []float64{0, 1.5, -2.25, math.Pi}
	v := Floats(xs)
	got := v.AsFloats()
	if len(got) != len(xs) {
		t.Fatalf("AsFloats len = %d, want %d", len(got), len(xs))
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("AsFloats[%d] = %v, want %v", i, got[i], xs[i])
		}
	}
	rt := roundTrip(t, v)
	if !rt.Equal(v) {
		t.Fatal("Floats blob did not survive round-trip")
	}
}

func TestAccessorsWrongKind(t *testing.T) {
	v := Int(7)
	if v.AsBool() || v.AsString() != "" || v.AsBytes() != nil || v.AsFloat() != 0 {
		t.Fatal("wrong-kind accessors must return zero values")
	}
	if _, ok := v.AsRef(); ok {
		t.Fatal("AsRef on int must report !ok")
	}
	if !v.At(0).IsNull() || !v.Get("k").IsNull() {
		t.Fatal("At/Get on scalar must return null")
	}
	if Null().Len() != 0 {
		t.Fatal("Len of null must be 0")
	}
}

// TestValueSize gates the size of Value: it is copied on every queue push,
// serve and marshal, so each word it gains is paid on the hot path
// (runtime.duffcopy in the call profile).
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 120 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d B, budget 120", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatal("zero Value must be null")
	}
	got := roundTrip(t, v)
	if !got.IsNull() {
		t.Fatal("zero Value must round-trip as null")
	}
}

func TestDictKeysSortedAndEncodingDeterministic(t *testing.T) {
	m := map[string]Value{"b": Int(2), "a": Int(1), "c": Int(3)}
	v := Dict(m)
	keys := v.Keys()
	if !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
		t.Fatalf("Keys = %v, want sorted", keys)
	}
	e1 := Encode(nil, v)
	e2 := Encode(nil, Dict(m))
	if string(e1) != string(e2) {
		t.Fatal("dict encoding must be deterministic")
	}
}
