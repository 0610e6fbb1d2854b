package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// reflectMarshal is the field-by-field reflection marshal of a struct
// that plans replaced, kept as the oracle FuzzPlanCodecParity holds them
// to: each field of the plan's table through marshalValue, not its
// fast path, and the dict built by Dict, not from the plan's keys.
func reflectMarshal(rv reflect.Value) (Value, error) {
	m := make(map[string]Value)
	for _, f := range planFor(rv.Type()).fields {
		fv := rv.Field(f.index)
		if f.omitEmpty && fv.IsZero() {
			continue
		}
		ev, err := marshalValue(fv, false)
		if err != nil {
			return Null(), fmt.Errorf("field %s: %w", f.key, err)
		}
		m[f.key] = ev
	}
	return Dict(m), nil
}

// reflectUnmarshal is the oracle's unmarshal of a dict: each field whose
// key the dict has, looked up by key, through unmarshalValue; an absent
// key leaves its field untouched.
func reflectUnmarshal(v Value, rv reflect.Value, owned bool) error {
	v = Expand(v)
	for _, f := range planFor(rv.Type()).fields {
		i, present := slices.BinarySearch(v.dkeys, f.key)
		if !present {
			continue
		}
		if err := unmarshalValue(v.elems[i], rv.Field(f.index), owned); err != nil {
			return fmt.Errorf("field %s: %w", f.key, err)
		}
	}
	return nil
}

// FuzzPlanCodecParity feeds the same arbitrary struct through its plan
// and through the reflection oracle and requires byte-identical canonical
// encodings, matching error behavior, and a re-marshal after decode that
// reproduces the same bytes from the plan's merge walk and from the
// oracle's unmarshal. A third arm decodes the encoded form straight into
// the struct and holds it to the Value-tree decode and the oracle. The
// direct encoder (Codec.EncodeAfter, with the plan held or looked up per
// call) must write the bytes Encode writes for Marshal's value.
func FuzzPlanCodecParity(f *testing.F) {
	f.Add(false, int64(0), int32(0), uint64(0), 0.0, float32(0), "", []byte(nil), []byte(nil), uint8(0), uint32(0), uint32(0), "", "", int64(0))
	f.Add(true, int64(-7), int32(42), uint64(9), 2.5, float32(1.5), "hello", []byte{1, 2, 3}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(1), uint32(3), uint32(8), "present", "k", int64(11))
	f.Add(true, int64(math.MaxInt64), int32(math.MinInt32), uint64(math.MaxUint64), math.Inf(-1), float32(math.MaxFloat32), "√", []byte("bytes"), []byte("0123456789abcdef"), uint8(2), uint32(1), uint32(1), "", "key", int64(-1))
	f.Fuzz(func(t *testing.T, b bool, i int64, i32 int32, u uint64, fl float64, f32 float32, s string, raw, fsRaw []byte, vsel uint8, node, seq uint32, opt, mk string, mv int64) {
		if planFor(reflect.TypeOf(parityPlanMsg{})) == nil {
			t.Fatal("parityPlanMsg has no plan")
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
		msg := parityPlanMsg{B: b, I: i, I32: i32, U: u, F: fl, F32: f32, S: s,
			Raw: raw, Fs: fs, V: v, Act: act, Fut: fut, Opt: opt, M: map[string]int64{mk: mv}}

		pv, perr := Marshal(msg)
		rv, rerr := reflectMarshal(reflect.ValueOf(msg))
		// The direct encoder of the typed send path, with the plan held
		// and (the zero codec) looked up per call, behind room.
		const room = 3
		dp, dperr := CodecFor[parityPlanMsg]().EncodeAfter(room, msg)
		dz, dzerr := Codec[parityPlanMsg]{}.EncodeAfter(room, msg)
		if (perr != nil) != (rerr != nil) || (perr != nil) != (dperr != nil) || (perr != nil) != (dzerr != nil) {
			t.Fatalf("marshal error divergence: plan=%v oracle=%v direct=%v zero codec=%v", perr, rerr, dperr, dzerr)
		}
		if perr != nil {
			return // e.g. uint overflow — every path rejected it
		}
		pb := Encode(nil, pv)
		rb := Encode(nil, rv)
		if !bytes.Equal(pb, rb) {
			t.Fatalf("encoding divergence:\nplan   %x\noracle %x", pb, rb)
		}
		if len(dp) != room+len(pb) || !bytes.Equal(dp[room:], pb) || !bytes.Equal(dz, dp) {
			t.Fatalf("direct encoding divergence:\nwant %x\nplan %x\nzero codec %x", pb, dp, dz)
		}
		if ps, rs := EncodedSize(pv), EncodedSize(rv); ps != len(pb) || rs != len(pb) {
			t.Fatalf("EncodedSize plan %d, oracle %d; Encode wrote %d bytes", ps, rs, len(pb))
		}

		// Decode the canonical bytes and unmarshal them along the plan's
		// sorted merge walk and through the oracle; the oracle's own value
		// along the plan too.
		var dec Decoder
		decoded, err := dec.Decode(pb)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		var backP, backR, backO parityPlanMsg
		if err := Unmarshal(decoded, &backP); err != nil {
			t.Fatalf("plan unmarshal: %v", err)
		}
		if err := reflectUnmarshal(decoded, reflect.ValueOf(&backR).Elem(), false); err != nil {
			t.Fatalf("oracle unmarshal: %v", err)
		}
		if err := Unmarshal(rv, &backO); err != nil {
			t.Fatalf("plan unmarshal of the oracle's value: %v", err)
		}
		for _, back := range []parityPlanMsg{backP, backR, backO} {
			if got := Encode(nil, mustMarshal(t, back)); !bytes.Equal(got, pb) {
				t.Fatalf("round trip diverged:\nwant %x\ngot  %x", pb, got)
			}
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
// parity struct, and tree, its decoded Value tree, along the plan and
// through the oracle, copying and owning: all must give the same struct
// or the same error.
func checkEncodedParity(t *testing.T, enc, tree Value) {
	t.Helper()
	codec := CodecFor[parityPlanMsg]()
	for _, owned := range []bool{false, true} {
		var fromBytes, fromTree, fromOracle parityPlanMsg
		unmarshal := codec.Unmarshal
		if owned {
			unmarshal = codec.UnmarshalOwned
		}
		errB, errT := unmarshal(enc, &fromBytes), unmarshal(tree, &fromTree)
		errO := reflectUnmarshal(tree, reflect.ValueOf(&fromOracle).Elem(), owned)
		for _, err := range []error{errT, errO} {
			if (errB == nil) != (err == nil) || errB != nil && errB.Error() != err.Error() {
				t.Fatalf("owned=%v: encoded-form decode error %v, tree decode error %v, oracle %v", owned, errB, errT, errO)
			}
		}
		if errB != nil {
			continue
		}
		b := Encode(nil, mustMarshal(t, fromBytes))
		for _, other := range []parityPlanMsg{fromTree, fromOracle} {
			if ob := Encode(nil, mustMarshal(t, other)); !bytes.Equal(b, ob) {
				t.Fatalf("owned=%v: encoded-form decode gave\n%x\ntree or oracle decode gave\n%x", owned, b, ob)
			}
			if (fromBytes.Raw == nil) != (other.Raw == nil) || (fromBytes.Fs == nil) != (other.Fs == nil) ||
				(fromBytes.M == nil) != (other.M == nil) {
				t.Fatalf("owned=%v: nil slices or maps differ: %+v vs %+v", owned, fromBytes, other)
			}
		}
	}
}

// decodeRefFree is DecodePayload's fast path alone: the copied encoded
// form, and whether buf took the path.
func decodeRefFree(buf []byte) (Value, bool) {
	v, err := DecodePayload(buf, false)
	return v, err == nil && v.isEncoded()
}

// FuzzDecodeRefFree holds the receive fast path to its promise. The walk
// accepts exactly the canonical dicts that Decoder.Decode accepts into a
// value whose Refs are empty (no Ref, no future owner), so skipping the
// decoder can never hide a reference; and what it accepts reads like its decoded tree through every accessor
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
		tree, err := dec.Decode(data)
		refs := len(tree.Refs(nil))
		canonical := err == nil && tree.Kind() == KindDict && bytes.Equal(Encode(nil, tree), data)
		if want := canonical && refs == 0; ok != want {
			t.Fatalf("DecodeRefFree = %v; decode error %v, %d refs, canonical %v", ok, err, refs, canonical)
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
		if len(enc.Refs(nil)) != 0 || len(enc.FutureRefs(nil)) != 0 {
			t.Fatal("the encoded form reports a reference")
		}
		checkEncodedParity(t, enc, tree)
	})
}
