package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ids"
)

// TestReaderContract pins what every envelope decoder relies on: reads
// mirror the Append* helpers, the first failure sticks with the caller's
// sentinel and zeroes every later read, and the shared guards (minimal
// uvarints, 32-bit uvarints, bounded counts, the kind byte, no trailing
// bytes, a decoder's own Fail) refuse.
func TestReaderContract(t *testing.T) {
	bad := errors.New("bad envelope")
	id := ids.ActivityID{Node: 1, Seq: 300}
	var r Reader
	r.Reset(AppendString(AppendFuture(AppendID([]byte{7}, id), ids.FutureID(id)), "hi"), bad)
	r.Expect(7)
	if gotID, gotF, s := r.ID(), r.Future(), r.String(); gotID != id || gotF != ids.FutureID(id) || s != "hi" {
		t.Fatalf("read back %v %v %q", gotID, gotF, s)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}

	r.Reset([]byte{1, 2, 3, 4, 5}, bad)
	if r.Byte() != 1 || r.U64() != 0 || r.Byte() != 0 || r.Len() != 0 || r.Err() != bad {
		t.Fatalf("a failed read must stick and zero later reads: err %v", r.Err())
	}

	for _, c := range []struct {
		name string
		buf  []byte
		read func(*Reader)
	}{
		{"non-minimal uvarint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"uvarint past 32 bits", []byte{0x80, 0x80, 0x80, 0x80, 0x10}, func(r *Reader) { r.Uvarint32() }},
		{"failed by the decoder", []byte{0}, func(r *Reader) { r.Byte(); r.Fail() }},
		{"count over its cap", []byte{3, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		{"count over the bytes left", []byte{3, 0, 0}, func(r *Reader) { r.Count(10) }},
		{"wrong kind byte", []byte{2}, func(r *Reader) { r.Expect(1) }},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.Byte() }},
		{"truncated string", []byte{5, 'a'}, func(r *Reader) { _ = r.String() }},
	} {
		r.Reset(c.buf, bad)
		c.read(&r)
		if err := r.Done(); err != bad {
			t.Errorf("%s: Done = %v, want the sentinel", c.name, err)
		}
	}

	var d Decoder
	r.Reset([]byte{0xff}, bad)
	if v := r.Value(&d); !v.Equal(Value{}) || !errors.Is(r.Err(), bad) || !errors.Is(r.Err(), ErrBadTag) {
		t.Fatalf("a bad value must report both sentinels, got %v", r.Err())
	}
	r.Reset([]byte{0xff}, bad)
	if raw := r.RawValue(); raw != nil || !errors.Is(r.Err(), bad) || !errors.Is(r.Err(), ErrBadTag) {
		t.Fatalf("a bad raw value must report both sentinels, got %v", r.Err())
	}
}

// TestReaderRawValue: RawValue returns exactly one value's encoding and
// leaves the cursor on the next byte, for the ref-free values it checks
// without decoding and for the ones it has to decode — a Ref inside. Dict
// keys out of canonical order fail it, as they fail the decoder.
func TestReaderRawValue(t *testing.T) {
	bad := errors.New("bad envelope")
	for _, enc := range [][]byte{
		Encode(nil, Int(-5)),
		Encode(nil, Dict(map[string]Value{"k": String("v"), "n": List(Int(1), Bytes([]byte("x")))})),
		Encode(nil, List(String("x"), Ref(ids.ActivityID{Node: 1, Seq: 3}))),
	} {
		var r Reader
		r.Reset(append(append([]byte(nil), enc...), 9), bad)
		if raw := r.RawValue(); string(raw) != string(enc) || r.Byte() != 9 || r.Done() != nil {
			t.Errorf("RawValue of % x = % x, err %v", enc, raw, r.Err())
		}
	}
	for _, enc := range [][]byte{
		{byte(KindDict), 2, 1, 'b', byte(KindNull), 1, 'a', byte(KindNull)},         // unsorted
		{byte(KindDict), 2, 1, 'a', byte(KindNull), 1, 'a', byte(KindRef), 1, 2},    // duplicate, a ref inside
		{byte(KindList), 1, byte(KindDict), 2, 1, 'b', byte(KindInt), 2, 1, 'a', 1}, // nested
	} {
		var r Reader
		r.Reset(enc, bad)
		if raw := r.RawValue(); raw != nil || !errors.Is(r.Err(), bad) || !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("RawValue of non-canonical % x = % x, err %v", enc, raw, r.Err())
		}
	}
}

// TestUvarintMatchesReference holds the call-free Uvarint and Uvarint32 to
// binary.Uvarint plus the minimality and 32-bit rules, on the boundary
// encodings and on random bytes: same value, same bytes consumed, same
// refusals.
func TestUvarintMatchesReference(t *testing.T) {
	ref := func(b []byte, max uint64) (uint64, int, bool) {
		x, n := binary.Uvarint(b)
		if n <= 0 || (n > 1 && b[n-1] == 0) || x > max {
			return 0, 0, false
		}
		return x, n, true
	}
	var inputs [][]byte
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 1<<14 - 1, 1 << 14, 1<<28 - 1, 1 << 28,
		math.MaxUint32, math.MaxUint32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		inputs = append(inputs, enc, enc[:len(enc)-1], append(slices.Clone(enc), 0xaa))
		if len(enc) < binary.MaxVarintLen64 {
			padded := append(slices.Clone(enc), 0) // the non-minimal spelling
			padded[len(enc)-1] |= 0x80
			inputs = append(inputs, padded)
		}
	}
	inputs = append(inputs, bytes.Repeat([]byte{0xff}, 11),
		append(bytes.Repeat([]byte{0x80}, 9), 0x02), append(bytes.Repeat([]byte{0x80}, 4), 0x10))
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		b := make([]byte, rng.IntN(12))
		for i := range b {
			b[i] = byte(rng.IntN(256))
			if rng.IntN(3) == 0 {
				b[i] |= 0x80
			}
		}
		inputs = append(inputs, b)
	}
	for _, b := range inputs {
		var r Reader
		for _, c := range []struct {
			max  uint64
			read func() uint64
		}{
			{math.MaxUint64, r.Uvarint},
			{math.MaxUint32, func() uint64 { return uint64(r.Uvarint32()) }},
		} {
			r.Reset(b, errBadTest)
			got, ok := c.read(), r.Err() == nil
			want, n, wantOK := ref(b, c.max)
			if got != want || ok != wantOK || (ok && r.Len() != len(b)-n) {
				t.Fatalf("%x (max %#x): got %d ok %v left %d, want %d ok %v n %d",
					b, c.max, got, ok, r.Len(), want, wantOK, n)
			}
		}
	}
}

var errBadTest = errors.New("bad test input")
