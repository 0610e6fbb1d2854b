package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/ids"
)

// parityPlanMsg covers every plan fast-path kind (bool, int, narrow int,
// uint, float, narrow float, string, bytes, floats, Value, ActivityID,
// FutureRef), an omitempty field, and a fallback-kind field (the map) —
// one struct whose marshal walks the whole planKind switch.
type parityPlanMsg struct {
	B   bool             `wire:"b"`
	I   int64            `wire:"i"`
	I32 int32            `wire:"i32"`
	U   uint64           `wire:"u"`
	F   float64          `wire:"f"`
	F32 float32          `wire:"f32"`
	S   string           `wire:"s"`
	Raw []byte           `wire:"raw"`
	Fs  []float64        `wire:"fs"`
	V   Value            `wire:"v"`
	Act ids.ActivityID   `wire:"act"`
	Fut FutureRef        `wire:"fut"`
	Opt string           `wire:"opt,omitempty"`
	M   map[string]int64 `wire:"m"`
}

// parityReflMsg is the field-for-field mirror of parityPlanMsg. It is
// never registered, so marshaling it always takes the reflection
// fallback — the differential oracle for the cached-plan codec.
type parityReflMsg struct {
	B   bool             `wire:"b"`
	I   int64            `wire:"i"`
	I32 int32            `wire:"i32"`
	U   uint64           `wire:"u"`
	F   float64          `wire:"f"`
	F32 float32          `wire:"f32"`
	S   string           `wire:"s"`
	Raw []byte           `wire:"raw"`
	Fs  []float64        `wire:"fs"`
	V   Value            `wire:"v"`
	Act ids.ActivityID   `wire:"act"`
	Fut FutureRef        `wire:"fut"`
	Opt string           `wire:"opt,omitempty"`
	M   map[string]int64 `wire:"m"`
}

func init() { RegisterType(parityPlanMsg{}) }

// FuzzPlanCodecParity feeds the same arbitrary value through the
// cached-plan encoder (registered type) and the reflection fallback
// (identical unregistered mirror type) and requires byte-identical
// canonical encodings, matching error behavior, and a re-marshal after
// decode that reproduces the same bytes from both unmarshal branches
// (pairs-form merge walk and map-form lookup).
func FuzzPlanCodecParity(f *testing.F) {
	f.Add(false, int64(0), int32(0), uint64(0), 0.0, float32(0), "", []byte(nil), []byte(nil), uint8(0), uint32(0), uint32(0), "", "", int64(0))
	f.Add(true, int64(-7), int32(42), uint64(9), 2.5, float32(1.5), "hello", []byte{1, 2, 3}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(1), uint32(3), uint32(8), "present", "k", int64(11))
	f.Add(true, int64(math.MaxInt64), int32(math.MinInt32), uint64(math.MaxUint64), math.Inf(-1), float32(math.MaxFloat32), "√", []byte("bytes"), []byte("0123456789abcdef"), uint8(2), uint32(1), uint32(1), "", "key", int64(-1))
	f.Fuzz(func(t *testing.T, b bool, i int64, i32 int32, u uint64, fl float64, f32 float32, s string, raw, fsRaw []byte, vsel uint8, node, seq uint32, opt, mk string, mv int64) {
		if planFor(reflect.TypeOf(parityPlanMsg{})) == nil {
			t.Fatal("parityPlanMsg lost its plan")
		}
		if planFor(reflect.TypeOf(parityReflMsg{})) != nil {
			t.Fatal("parityReflMsg must stay unregistered")
		}
		fs := make([]float64, 0, len(fsRaw)/8)
		for len(fsRaw) >= 8 {
			fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(fsRaw)))
			fsRaw = fsRaw[8:]
		}
		var v Value
		switch vsel % 4 {
		case 0:
			v = Null()
		case 1:
			v = Int(i)
		case 2:
			v = List(String(s), Float(fl))
		case 3:
			v = Dict(map[string]Value{"inner": Bytes(raw)})
		}
		act := ids.ActivityID{Node: ids.NodeID(node), Seq: seq}
		fut := FutureRef{ID: ids.FutureID{Node: ids.NodeID(seq), Seq: node}, Owner: act}
		m := map[string]int64{mk: mv}

		plan := parityPlanMsg{B: b, I: i, I32: i32, U: u, F: fl, F32: f32, S: s,
			Raw: raw, Fs: fs, V: v, Act: act, Fut: fut, Opt: opt, M: m}
		refl := parityReflMsg{B: b, I: i, I32: i32, U: u, F: fl, F32: f32, S: s,
			Raw: raw, Fs: fs, V: v, Act: act, Fut: fut, Opt: opt, M: m}

		pv, perr := Marshal(plan)
		rv, rerr := Marshal(refl)
		if (perr != nil) != (rerr != nil) {
			t.Fatalf("marshal error divergence: plan=%v refl=%v", perr, rerr)
		}
		if perr != nil {
			return // e.g. uint overflow — both paths rejected it
		}
		pb := Encode(nil, pv)
		rb := Encode(nil, rv)
		if !bytes.Equal(pb, rb) {
			t.Fatalf("encoding divergence:\nplan %x\nrefl %x", pb, rb)
		}
		// Pairs form and map form, sized without encoding.
		if ps, rs := EncodedSize(pv), EncodedSize(rv); ps != len(pb) || rs != len(pb) {
			t.Fatalf("EncodedSize plan %d, refl %d; Encode wrote %d bytes", ps, rs, len(pb))
		}

		// Decode the canonical bytes (pairs-form dict) and unmarshal into
		// both types: the plan's sorted merge walk against the reflection
		// decoder.
		var dec Decoder
		decoded, err := dec.Decode(pb)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		var backP parityPlanMsg
		var backR parityReflMsg
		if err := Unmarshal(decoded, &backP); err != nil {
			t.Fatalf("plan unmarshal: %v", err)
		}
		if err := Unmarshal(decoded, &backR); err != nil {
			t.Fatalf("refl unmarshal: %v", err)
		}
		remarshal := func(x any) []byte {
			mv, err := Marshal(x)
			if err != nil {
				t.Fatalf("re-marshal %T: %v", x, err)
			}
			return Encode(nil, mv)
		}
		if got := remarshal(backP); !bytes.Equal(got, pb) {
			t.Fatalf("plan round trip diverged:\nwant %x\ngot  %x", pb, got)
		}
		if got := remarshal(backR); !bytes.Equal(got, pb) {
			t.Fatalf("refl round trip diverged:\nwant %x\ngot  %x", pb, got)
		}

		// The reflection marshal of the mirror type produced a map-form
		// dict: unmarshaling it into the registered type exercises the
		// plan's map-form branch, which must agree with the merge walk.
		var backP2 parityPlanMsg
		if err := Unmarshal(rv, &backP2); err != nil {
			t.Fatalf("plan unmarshal (map form): %v", err)
		}
		if got := remarshal(backP2); !bytes.Equal(got, pb) {
			t.Fatalf("map-form round trip diverged:\nwant %x\ngot  %x", pb, got)
		}
	})
}
