package wire

// FuzzUnmarshal: the PR 3 hardening fuzzer aimed squarely at the struct
// codec's unmarshal side (FuzzCodecDecodeUnmarshal covers the decoder;
// this one drives Unmarshal across a battery of target shapes and checks
// the marshal⇄unmarshal round trip on everything it accepts).

import (
	"testing"

	"repro/internal/ids"
)

// fuzzTargets is the battery of Go shapes the fuzzer tries to unmarshal
// into: scalars, slices, maps, nested structs, pointers, passthrough
// types.
type fuzzNested struct {
	Name string           `wire:"name"`
	IDs  []ids.ActivityID `wire:"ids,omitempty"`
	Meta map[string]int64 `wire:"meta,omitempty"`
	Raw  Value            `wire:"raw"`
	Next *fuzzNested      `wire:"next"`
	Skip string           `wire:"-"`
	Mix  map[string]any   `wire:"mix,omitempty"`
	Vec  []float64        `wire:"vec,omitempty"`
	Blob []byte           `wire:"blob,omitempty"`
}

// FuzzUnmarshal feeds arbitrary encodings through Decode and then through
// Unmarshal into every target shape. Nothing may panic; and any value a
// typed target accepts must survive Marshal → Unmarshal again unchanged
// at the wire level (the codec cannot invent or lose structure the DGC
// would see through Value.Refs).
func FuzzUnmarshal(f *testing.F) {
	// Seed corpus: canonical encodings of values that exercise every
	// branch of the target battery.
	seeds := []Value{
		Null(),
		Bool(true),
		Int(-42),
		Float(3.5),
		String("seed"),
		Bytes([]byte{1, 2, 3}),
		Floats([]float64{1, 2, 4}),
		List(Int(1), String("two"), Ref(ids.ActivityID{Node: 3, Seq: 4})),
		Dict(map[string]Value{
			"name": String("n"),
			"ids":  List(Ref(ids.ActivityID{Node: 1, Seq: 1})),
			"meta": Dict(map[string]Value{"k": Int(9)}),
			"raw":  Ref(ids.ActivityID{Node: 7, Seq: 7}),
			"next": Dict(map[string]Value{"name": String("inner"), "raw": Null()}),
			"vec":  Floats([]float64{0.5}),
			"blob": Bytes([]byte("blob")),
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
		// None of these may panic; errors are the codec doing its job.
		var (
			b    bool
			i    int64
			u    uint16
			fl   float64
			s    string
			bs   []byte
			fs   []float64
			l    []any
			m    map[string]string
			st   fuzzNested
			pst  *fuzzNested
			id   ids.ActivityID
			vals []Value
		)
		_ = Unmarshal(v, &b)
		_ = Unmarshal(v, &i)
		_ = Unmarshal(v, &u)
		_ = Unmarshal(v, &fl)
		_ = Unmarshal(v, &s)
		_ = Unmarshal(v, &bs)
		_ = Unmarshal(v, &fs)
		_ = Unmarshal(v, &l)
		_ = Unmarshal(v, &m)
		_ = Unmarshal(v, &id)
		_ = Unmarshal(v, &vals)
		if err := Unmarshal(v, &pst); err == nil && !v.IsNull() {
			// A struct the codec accepted must re-marshal cleanly, and the
			// re-marshaled value must unmarshal to the same struct again:
			// no one-way doors in the typed façade.
			back, err := Marshal(pst)
			if err != nil {
				t.Fatalf("re-marshal of accepted struct failed: %v", err)
			}
			var again *fuzzNested
			if err := Unmarshal(back, &again); err != nil {
				t.Fatalf("re-unmarshal failed: %v", err)
			}
			final, err := Marshal(again)
			if err != nil {
				t.Fatalf("final marshal failed: %v", err)
			}
			if !final.Equal(back) {
				t.Fatalf("marshal⇄unmarshal not a fixpoint:\n%v\n%v", back, final)
			}
		}
		_ = Unmarshal(v, &st)
	})
}
