package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
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
// (pairs-form merge walk and map-form lookup). A third arm decodes the
// encoded form straight into the struct and holds it to the Value-tree
// decode. The direct encoder (Codec.EncodeAfter) must write the bytes
// Encode writes for Marshal's value.
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
		// The direct encoder of the typed send path, along the plan and
		// (the zero codec) through the reflection fallback, behind room.
		const room = 3
		dp, dperr := CodecFor[parityPlanMsg]().EncodeAfter(room, plan)
		dr, drerr := Codec[parityReflMsg]{}.EncodeAfter(room, refl)
		if (perr != nil) != (rerr != nil) || (perr != nil) != (dperr != nil) || (perr != nil) != (drerr != nil) {
			t.Fatalf("marshal error divergence: plan=%v refl=%v direct plan=%v direct refl=%v", perr, rerr, dperr, drerr)
		}
		if perr != nil {
			return // e.g. uint overflow — every path rejected it
		}
		pb := Encode(nil, pv)
		rb := Encode(nil, rv)
		if !bytes.Equal(pb, rb) {
			t.Fatalf("encoding divergence:\nplan %x\nrefl %x", pb, rb)
		}
		if len(dp) != room+len(pb) || !bytes.Equal(dp[room:], pb) || !bytes.Equal(dr, dp) {
			t.Fatalf("direct encoding divergence:\nwant %x\nplan %x\nrefl %x", pb, dp, dr)
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

		// Third arm: without its Ref and Future values the message may
		// stay in encoded form. Then each key alone, holding the value of
		// the field shift keys along: mostly the wrong kind, and both
		// decodes must fail alike.
		encodings := [][]byte{refFreeEncoding(decoded, -1)}
		for i := range decoded.dkeys {
			encodings = append(encodings, refFreeEncoding(decoded, i+1+int(vsel>>2)))
		}
		for _, raw := range encodings {
			enc, ok := decodeRefFree(raw)
			if !ok {
				t.Fatalf("DecodeRefFree refused the canonical ref-free dict %x", raw)
			}
			tree, err := dec.Decode(raw)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			checkEncodedParity(t, enc, tree)
		}
	})
}

// refFreeEncoding re-encodes a decoded parity message without its Ref and
// Future values. For at ≥ 1 it encodes a one-entry dict instead: key
// number at-1 holding remaining value number at, both counted modulo.
func refFreeEncoding(v Value, at int) []byte {
	var keys []string
	var vals []Value
	for i, k := range v.dkeys {
		if kind := v.elems[i].Kind(); kind != KindRef && kind != KindFuture {
			keys = append(keys, k)
			vals = append(vals, v.elems[i])
		}
	}
	if at > 0 {
		keys, vals = []string{v.dkeys[(at-1)%len(v.dkeys)]}, []Value{vals[at%len(vals)]}
	}
	return Encode(nil, Value{kind: KindDict, dkeys: keys, elems: vals})
}

// checkEncodedParity decodes enc, an encoded-form dict, straight into the
// registered parity struct and tree, its decoded Value tree, the usual
// way, copying and owning: both must give the same struct or the same
// error. The unregistered mirror reads the encoded form through its tree.
func checkEncodedParity(t *testing.T, enc, tree Value) {
	t.Helper()
	codec := CodecFor[parityPlanMsg]()
	for _, owned := range []bool{false, true} {
		var fromBytes, fromTree parityPlanMsg
		unmarshal := codec.Unmarshal
		if owned {
			unmarshal = codec.UnmarshalOwned
		}
		errB, errT := unmarshal(enc, &fromBytes), unmarshal(tree, &fromTree)
		if (errB == nil) != (errT == nil) || errB != nil && errB.Error() != errT.Error() {
			t.Fatalf("owned=%v: encoded-form decode error %v, tree decode error %v", owned, errB, errT)
		}
		if errB != nil {
			continue
		}
		mb, errMB := Marshal(fromBytes)
		mt, errMT := Marshal(fromTree)
		if errMB != nil || errMT != nil {
			t.Fatalf("re-marshal: %v / %v", errMB, errMT)
		}
		if b, tb := Encode(nil, mb), Encode(nil, mt); !bytes.Equal(b, tb) {
			t.Fatalf("owned=%v: encoded-form decode gave\n%x\ntree decode gave\n%x", owned, b, tb)
		}
		if (fromBytes.Raw == nil) != (fromTree.Raw == nil) || (fromBytes.Fs == nil) != (fromTree.Fs == nil) ||
			(fromBytes.M == nil) != (fromTree.M == nil) {
			t.Fatalf("owned=%v: nil slices or maps differ: %+v vs %+v", owned, fromBytes, fromTree)
		}
	}
	var viaRefl, viaTree parityReflMsg
	errR, errT := Unmarshal(enc, &viaRefl), Unmarshal(tree, &viaTree)
	if (errR == nil) != (errT == nil) || errR != nil && errR.Error() != errT.Error() {
		t.Fatalf("reflection decode of the encoded form: %v, of the tree: %v", errR, errT)
	}
}

// decodeRefFree is DecodePayload's fast path alone: the copied encoded
// form, and whether buf took the path.
func decodeRefFree(buf []byte) (Value, bool) {
	v, err := DecodePayload(buf, false)
	return v, err == nil && v.isEncoded()
}

// FuzzDecodeRefFree holds the receive fast path to its promise. The walk
// accepts exactly the canonical dicts that Decoder.Decode accepts without
// firing OnRef or OnFuture, so skipping the decoder can never skip a hook;
// and what it accepts reads like its decoded tree through every accessor
// and through the plan decode. The owned DecodePayload and FutureRefsIn,
// which the runtime delivers and registers holders with, are held to the
// decoder on the same inputs.
func FuzzDecodeRefFree(f *testing.F) {
	parity, err := Marshal(parityPlanMsg{S: "s", Raw: []byte{1, 2}, V: List(Int(1), Bytes([]byte{3}))})
	if err != nil {
		f.Fatal(err)
	}
	var dec Decoder
	parityTree, _ := dec.Decode(Encode(nil, parity))
	for _, v := range []Value{
		Dict(nil),
		Dict(map[string]Value{"a": Int(-1), "b": Bool(true), "c": Float(0.5), "d": Null()}),
		Dict(map[string]Value{"n": Dict(map[string]Value{"l": List(String("x"), Bytes(nil))})}),
		Dict(map[string]Value{"ref": Ref(ids.ActivityID{Node: 1, Seq: 2})}),
		Dict(map[string]Value{"fut": FutureVal(FutureRef{ID: ids.FutureID{Node: 1, Seq: 1}})}),
		Value{kind: KindDict, dkeys: []string{"b", "a"}, elems: []Value{Int(1), Int(2)}}, // keys out of order
		List(Int(1)),
	} {
		f.Add(Encode(nil, v))
	}
	f.Add(Encode(nil, parity))
	f.Add(refFreeEncoding(parityTree, -1))
	f.Add(refFreeEncoding(parityTree, 3))
	f.Add([]byte{byte(KindDict), 1, 1, 'k', byte(KindInt), 0x80, 0x00}) // non-minimal varint
	f.Add([]byte{byte(KindDict), 1, 1, 'k', byte(KindBool), 2})         // a Bool of 2
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, ok := decodeRefFree(data)
		hooks := 0
		d := Decoder{
			OnRef:    func(ids.ActivityID) { hooks++ },
			OnFuture: func(FutureRef) { hooks++ },
		}
		tree, err := d.Decode(data)
		canonical := err == nil && tree.Kind() == KindDict && bytes.Equal(Encode(nil, tree), data)
		if want := canonical && hooks == 0; ok != want {
			t.Fatalf("DecodeRefFree = %v; decode error %v, %d hooks, canonical %v", ok, err, hooks, canonical)
		}
		// An owned payload takes the same path and decodes to the same
		// value; the byte walk for futures agrees with the tree's.
		if pv, perr := DecodePayload(bytes.Clone(data), true); (perr == nil) != (err == nil) ||
			pv.isEncoded() != ok || err == nil && !pv.Equal(tree) {
			t.Fatalf("owned DecodePayload = %v, %v; decode gave %v, %v", pv, perr, tree, err)
		}
		if canonical && !slices.Equal(FutureRefsIn(data, nil), tree.FutureRefs(nil)) {
			t.Fatalf("FutureRefsIn = %v, tree has %v", FutureRefsIn(data, nil), tree.FutureRefs(nil))
		}
		if !ok {
			return
		}
		if dc := DeepCopy(enc); &enc.bytes[0] == &data[0] || &dc.bytes[0] == &enc.bytes[0] {
			t.Fatal("the encoded form shares its input buffer, or a deep copy shares the form's")
		}
		if !enc.Equal(tree) || !tree.Equal(enc) || !Expand(enc).Equal(tree) {
			t.Fatalf("encoded form %v is not equal to its tree %v", enc, tree)
		}
		if EncodedSize(enc) != len(data) || !bytes.Equal(Encode(nil, enc), data) ||
			!bytes.Equal(Encode(nil, DeepCopy(enc)), data) || !bytes.Equal(Encode(nil, Expand(enc)), data) {
			t.Fatal("the encoded form does not re-encode as the bytes it was made from")
		}
		if enc.Len() != tree.Len() || !slices.Equal(enc.Keys(), tree.Keys()) || enc.String() != tree.String() {
			t.Fatalf("accessors differ: %d %v %s vs %d %v %s", enc.Len(), enc.Keys(), enc, tree.Len(), tree.Keys(), tree)
		}
		for _, k := range tree.Keys() {
			if !enc.Get(k).Equal(tree.Get(k)) {
				t.Fatalf("Get(%q) = %v, tree has %v", k, enc.Get(k), tree.Get(k))
			}
		}
		if len(enc.Refs(nil)) != 0 || enc.HasFutures() {
			t.Fatal("the encoded form reports a reference")
		}
		checkEncodedParity(t, enc, tree)
	})
}
