//go:build !race

// Alloc-regression gates for the codec's steady-state hot paths. These
// run as ordinary tests (make test / CI), so allocation creep on the
// wire path fails the build exactly like a correctness regression. The
// budgets are exact current counts, not aspirations: when an
// optimization lowers one, lower the budget with it. Excluded under the
// race detector, whose instrumentation changes allocation behavior.
package wire

import (
	"bytes"
	"testing"
)

// allocMsg mirrors the shape of a typical request struct on the typed
// call path: scalar fields plus a string, all plan-fast-path kinds.
type allocMsg struct {
	A   int64   `wire:"a"`
	B   int64   `wire:"b"`
	F   float64 `wire:"f"`
	On  bool    `wire:"on"`
	Tag string  `wire:"tag"`
}

func init() { RegisterType(allocMsg{}) }

// assertAllocs runs f and fails the test when its average allocation
// count exceeds budget.
func assertAllocs(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(200, f)
	t.Logf("%s: %.2f allocs/op", name, got)
	if got > budget {
		t.Errorf("%s: %.2f allocs/op, budget %.2f", name, got, budget)
	}
}

// TestAllocsPlanMarshal gates the registered-struct marshal: one []Value
// slab for the dict plus the interface boxing of the sample itself.
func TestAllocsPlanMarshal(t *testing.T) {
	msg := allocMsg{A: 7, B: 9, F: 2.5, On: true, Tag: "alloc"}
	var sink Value
	assertAllocs(t, "plan marshal", 2, func() {
		v, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		sink = v
	})
	if sink.Get("a").AsInt() != 7 {
		t.Fatalf("bad marshal: %v", sink)
	}
}

// TestAllocsEncode gates canonical encoding into a reused buffer: zero
// allocations once the buffer has grown to size.
func TestAllocsEncode(t *testing.T) {
	msg := allocMsg{A: 7, B: 9, F: 2.5, On: true, Tag: "alloc"}
	v, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	assertAllocs(t, "encode", 0, func() {
		buf = Encode(buf[:0], v)
	})
	if len(buf) == 0 {
		t.Fatal("empty encoding")
	}
}

// TestAllocsEncodedSize gates the size walk the send path sizes its
// buffer with: no allocation for either dict form, nested or not. (It
// once ran a throw-away Encode.)
func TestAllocsEncodedSize(t *testing.T) {
	pairs, err := Marshal(allocMsg{A: 7, B: 9, F: 2.5, On: true, Tag: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	v := List(pairs, Dict(map[string]Value{"k": Bytes(make([]byte, 4096)), "l": List(Int(1))}))
	var sink int
	assertAllocs(t, "encoded size", 0, func() {
		sink = EncodedSize(v)
	})
	if sink != len(Encode(nil, v)) {
		t.Fatalf("EncodedSize = %d, want %d", sink, len(Encode(nil, v)))
	}
}

// TestAllocsPlanUnmarshal gates the struct decode of a decoded dict: the
// merge walk itself allocates nothing for plan-fast-path fields.
func TestAllocsPlanUnmarshal(t *testing.T) {
	msg := allocMsg{A: 7, B: 9, F: 2.5, On: true, Tag: "alloc"}
	v, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	raw := Encode(nil, v)
	var dec Decoder
	decoded, err := dec.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := new(allocMsg)
	assertAllocs(t, "plan unmarshal", 0, func() {
		if err := Unmarshal(decoded, out); err != nil {
			t.Fatal(err)
		}
	})
	if *out != msg {
		t.Fatalf("round trip: got %+v, want %+v", *out, msg)
	}
}

// TestAllocsDeepCopy gates the deep copy of a dict with scalar fields:
// exactly the one []Value slab.
func TestAllocsDeepCopy(t *testing.T) {
	msg := allocMsg{A: 7, B: 9, F: 2.5, On: true, Tag: "alloc"}
	v, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var sink Value
	assertAllocs(t, "deep copy", 1, func() {
		sink = DeepCopy(v)
	})
	if !sink.Equal(v) {
		t.Fatalf("deep copy diverged: %v != %v", sink, v)
	}
}

// allocBlob is a request with a payload, as the window workloads send.
type allocBlob struct {
	Seq     int64  `wire:"seq"`
	Payload []byte `wire:"payload"`
}

func init() { RegisterType(allocBlob{}) }

// TestAllocsDecodeRefFree gates the receive side of a ref-free request:
// the walk allocates nothing, so the one allocation is the owned copy of
// the bytes, and a payload handed over (an intra-node request) costs
// nothing.
func TestAllocsDecodeRefFree(t *testing.T) {
	raw := Encode(nil, mustMarshal(t, allocBlob{Seq: 3, Payload: make([]byte, 4096)}))
	var sink Value
	assertAllocs(t, "decode ref-free", 1, func() {
		v, ok := decodeRefFree(raw)
		if !ok {
			t.Fatal("refused a canonical ref-free dict")
		}
		sink = v
	})
	if EncodedSize(sink) != len(raw) {
		t.Fatalf("encoded form sized %d, want %d", EncodedSize(sink), len(raw))
	}
	assertAllocs(t, "decode ref-free, owned", 0, func() {
		v, err := DecodePayload(raw, true)
		if err != nil || &v.bytes[0] != &raw[0] {
			t.Fatal("an owned payload was refused or copied")
		}
	})
}

// TestAllocsPlanUnmarshalEncoded gates the typed decode straight from the
// bytes: no Value tree, no []Value. A string field costs its string; a
// []byte field costs its copy unless the caller owns the bytes.
func TestAllocsPlanUnmarshalEncoded(t *testing.T) {
	msg := allocMsg{A: 7, B: 9, F: 2.5, On: true, Tag: "alloc"}
	enc, ok := decodeRefFree(Encode(nil, mustMarshal(t, msg)))
	if !ok {
		t.Fatal("refused a canonical ref-free dict")
	}
	out := new(allocMsg)
	codec := CodecFor[allocMsg]()
	assertAllocs(t, "plan unmarshal, encoded form", 1, func() {
		if err := codec.Unmarshal(enc, out); err != nil {
			t.Fatal(err)
		}
	})
	if *out != msg {
		t.Fatalf("round trip: got %+v, want %+v", *out, msg)
	}

	blob, ok := decodeRefFree(Encode(nil, mustMarshal(t, allocBlob{Seq: 3, Payload: make([]byte, 4096)})))
	if !ok {
		t.Fatal("refused a canonical ref-free dict")
	}
	var b allocBlob
	blobCodec := CodecFor[allocBlob]()
	assertAllocs(t, "plan unmarshal owned, encoded form", 0, func() {
		if err := blobCodec.UnmarshalOwned(blob, &b); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "plan unmarshal copying, encoded form", 1, func() {
		if err := blobCodec.Unmarshal(blob, &b); err != nil {
			t.Fatal(err)
		}
	})
	if b.Seq != 3 || len(b.Payload) != 4096 {
		t.Fatalf("round trip: got seq %d, %d bytes", b.Seq, len(b.Payload))
	}
}

// twinPlain and twinNested are registered; each Unreg twin is the same
// type never registered, which gets its plan on first use.
type (
	twinPlain struct {
		A   int64  `wire:"a"`
		S   string `wire:"s"`
		Raw []byte `wire:"raw"`
	}
	twinPlainUnreg struct {
		A   int64  `wire:"a"`
		S   string `wire:"s"`
		Raw []byte `wire:"raw"`
	}
	twinNested struct {
		In  twinPlain        `wire:"in"`
		Ptr *twinPlain       `wire:"ptr"`
		M   map[string]int64 `wire:"m"`
		L   []string         `wire:"l"`
	}
	twinNestedUnreg struct {
		In  twinPlainUnreg   `wire:"in"`
		Ptr *twinPlainUnreg  `wire:"ptr"`
		M   map[string]int64 `wire:"m"`
		L   []string         `wire:"l"`
	}
)

func init() {
	RegisterType(twinPlain{})
	RegisterType(twinNested{})
}

// TestAllocsUnregisteredStruct holds an unregistered struct type to its
// registered twin: the same encoding, and the same allocations to marshal
// it and to unmarshal its decoding. Registering is a warm-up, not a
// second codec.
func TestAllocsUnregisteredStruct(t *testing.T) {
	plain := twinPlain{A: 7, S: "twin", Raw: []byte{1, 2}}
	for _, c := range []struct {
		name          string
		reg, unreg    any // struct values
		regOut, unOut any // pointers to their types
	}{
		{"plain", plain, twinPlainUnreg(plain), new(twinPlain), new(twinPlainUnreg)},
		{"nested",
			twinNested{In: plain, Ptr: &plain, M: map[string]int64{"b": 2, "a": 1}, L: []string{"x"}},
			twinNestedUnreg{In: twinPlainUnreg(plain), Ptr: (*twinPlainUnreg)(&plain), M: map[string]int64{"b": 2, "a": 1}, L: []string{"x"}},
			new(twinNested), new(twinNestedUnreg)},
	} {
		t.Run(c.name, func(t *testing.T) {
			enc := Encode(nil, mustMarshal(t, c.reg))
			if got := Encode(nil, mustMarshal(t, c.unreg)); !bytes.Equal(got, enc) {
				t.Fatalf("unregistered encoding\n%x\nregistered\n%x", got, enc)
			}
			var dec Decoder
			tree, err := dec.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(v, out any) (marshal, unmarshal float64) {
				marshal = testing.AllocsPerRun(200, func() {
					if _, err := Marshal(v); err != nil {
						t.Fatal(err)
					}
				})
				unmarshal = testing.AllocsPerRun(200, func() {
					if err := Unmarshal(tree, out); err != nil {
						t.Fatal(err)
					}
				})
				return marshal, unmarshal
			}
			rm, ru := allocs(c.reg, c.regOut)
			um, uu := allocs(c.unreg, c.unOut)
			t.Logf("registered %.1f/%.1f allocs, unregistered %.1f/%.1f (marshal/unmarshal)", rm, ru, um, uu)
			if rm != um || ru != uu {
				t.Errorf("unregistered %.1f/%.1f allocs, registered %.1f/%.1f (marshal/unmarshal)", um, uu, rm, ru)
			}
			if got := Encode(nil, mustMarshal(t, c.unOut)); !bytes.Equal(got, enc) {
				t.Fatalf("unregistered round trip\n%x\nwant\n%x", got, enc)
			}
		})
	}
}

// TestAllocsEncodeAfter gates the typed caller's encode: the buffer and
// the boxing of the sample — no []Value slab — and the payload copied
// once, into the buffer.
func TestAllocsEncodeAfter(t *testing.T) {
	msg := allocBlob{Seq: 3, Payload: make([]byte, 4096)}
	codec := CodecFor[allocBlob]()
	var sink []byte
	assertAllocs(t, "encode after", 2, func() {
		b, err := codec.EncodeAfter(8, msg)
		if err != nil {
			t.Fatal(err)
		}
		sink = b
	})
	if !bytes.Equal(sink[8:], Encode(nil, mustMarshal(t, msg))) || cap(sink) != len(sink) {
		t.Fatalf("EncodeAfter wrote %d bytes (cap %d), not the exact encoding", len(sink), cap(sink))
	}
}
