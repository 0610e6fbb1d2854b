package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ids"
)

// Reader is the bounds-checked cursor every envelope decoder reads
// through (WIRE.md §3, §7–§11): fixed-width integers are little-endian,
// an activity or future identifier is its uint32 node followed by its
// uint32 sequence, and strings and byte fields are a uvarint length
// followed by the bytes. The first failed read sticks: it records the
// decoder's own sentinel error, and every later read returns a zero
// value, so a decoder reads its whole layout and checks Err (or Done)
// once at the end. Uvarints must be minimal, so every envelope has
// exactly one valid encoding.
type Reader struct {
	buf []byte
	bad error // the sentinel a failed read records
	err error
}

// Reset points the cursor at buf, clearing any failure; failed reads
// report bad. Decoders declare a Reader and Reset it in place: building
// one in a helper and copying it out costs the hot decoders a
// store-forwarding stall per envelope.
func (r *Reader) Reset(buf []byte, bad error) { r.buf, r.bad, r.err = buf, bad, nil }

// Err reports the first failed read, or nil.
func (r *Reader) Err() error { return r.err }

// Done is Err, plus the trailing-bytes check: anything left unread is a
// failure too.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.Fail()
	}
	return r.err
}

// Fail records the sentinel unless an earlier read already failed, and
// drops the unread bytes, so every later read fails its length check. A
// decoder calls it for a field that reads fine but breaks the layout's
// rules (an unknown flag bit, a non-canonical choice).
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = r.bad
	}
	r.buf = nil
}

// Expect reads one byte and fails unless it is tag: the kind byte an
// envelope opens with.
func (r *Reader) Expect(tag byte) {
	if len(r.buf) == 0 || r.buf[0] != tag {
		r.Fail()
		return
	}
	r.buf = r.buf[1:]
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Next returns the next n bytes, aliasing the input (capacity-capped, so
// appending to them cannot clobber what follows).
func (r *Reader) Next(n int) []byte {
	if uint(n) > uint(len(r.buf)) {
		r.Fail()
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Rest returns every unread byte, aliasing the input.
func (r *Reader) Rest() []byte { return r.Next(len(r.buf)) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint32 reads a minimally encoded uvarint that must fit 32 bits. Like
// Uvarint it makes no call, so it inlines: a one-byte value costs one
// pass of the loop.
func (r *Reader) Uvarint32() uint32 {
	var x uint32
	for i, b := range r.buf {
		if i == 4 && b > 0x0f {
			break // past 32 bits
		}
		x |= uint32(b&0x7f) << (7 * i)
		if b < 0x80 {
			if i > 0 && b == 0 {
				break // not minimal
			}
			r.buf = r.buf[i+1:]
			return x
		}
	}
	r.Fail()
	return 0
}

// Uvarint reads a minimally encoded uvarint. It makes no call, so it
// inlines: a one-byte value costs one pass of the loop.
func (r *Reader) Uvarint() uint64 {
	var x uint64
	for i, b := range r.buf {
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break // past 64 bits
		}
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if i > 0 && b == 0 {
				break // not minimal
			}
			r.buf = r.buf[i+1:]
			return x
		}
	}
	r.Fail()
	return 0
}

// Count reads a uvarint element count, failing when it exceeds max or
// the unread bytes (every element takes at least one), so a hostile
// count is refused before anything is allocated for it.
func (r *Reader) Count(max int) int {
	n := r.Uvarint()
	if n > uint64(max) || n > uint64(len(r.buf)) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Bytes reads a uvarint length and that many bytes, aliasing the input.
func (r *Reader) Bytes() []byte { return r.Next(r.Count(len(r.buf))) }

// String reads a uvarint length and that many bytes as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// ID reads an activity identifier.
func (r *Reader) ID() ids.ActivityID {
	if len(r.buf) < 8 {
		r.Fail()
		return ids.Nil
	}
	id := ids.ActivityID{
		Node: ids.NodeID(binary.LittleEndian.Uint32(r.buf)),
		Seq:  binary.LittleEndian.Uint32(r.buf[4:]),
	}
	r.buf = r.buf[8:]
	return id
}

// Future reads a future identifier, laid out like an activity's.
func (r *Reader) Future() ids.FutureID { return ids.FutureID(r.ID()) }

// Value decodes one value (§1) with d, whose hooks fire as usual. A
// failure reports both the sentinel and the value decoder's error.
func (r *Reader) Value(d *Decoder) Value {
	if r.err != nil {
		return Value{}
	}
	v, rest, err := d.DecodePrefix(r.buf)
	if err != nil {
		r.err, r.buf = fmt.Errorf("%w: %w", r.bad, err), nil
		return Value{}
	}
	r.buf = rest
	return v
}

// RawValue reads past one value (§1) and returns its encoding, aliasing
// the input. It accepts exactly what Value accepts and fires no hook; a
// canonical value without a Ref or a Future is checked without being
// decoded.
func (r *Reader) RawValue() []byte {
	if r.err != nil {
		return nil
	}
	probe := *r
	probe.skipRefFree(0)
	if probe.err != nil {
		d := Decoder{alias: true}
		_, rest, err := d.DecodePrefix(r.buf)
		if err != nil {
			r.err, r.buf = fmt.Errorf("%w: %w", r.bad, err), nil
			return nil
		}
		probe.buf = rest
	}
	return r.Next(len(r.buf) - len(probe.buf))
}

// AppendID appends an activity identifier as Reader.ID reads it.
func AppendID(buf []byte, id ids.ActivityID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id.Node))
	return binary.LittleEndian.AppendUint32(buf, id.Seq)
}

// AppendFuture appends a future identifier as Reader.Future reads it.
func AppendFuture(buf []byte, fid ids.FutureID) []byte {
	return AppendID(buf, ids.ActivityID(fid))
}

// AppendBytes appends a uvarint length and b, as Reader.Bytes reads it.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendString appends a uvarint length and s, as Reader.String reads it.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
