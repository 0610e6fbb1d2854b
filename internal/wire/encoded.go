package wire

// The encoded form: a delivered dict that carries no Ref and no Future
// stays the bytes it arrived as (WIRE.md §2, "Payload ownership"). The
// receiver copies the bytes out of the transport's buffer once, or takes
// over an intra-node sender's own; a struct then decodes straight from
// them (plan.unmarshalEncoded) without building a Value tree, and a
// forwarded or checkpointed request re-encodes as those same bytes.
// Every other reader sees the decoded value.

import (
	"errors"

	"repro/internal/ids"
)

// errNotRefFree marks a walk that found a Ref, a Future or a non-canonical
// encoding; it never leaves the package.
var errNotRefFree = errors.New("wire: not a canonical ref-free value")

// isEncoded reports whether v is a dict in encoded form.
func (v Value) isEncoded() bool { return v.kind == KindDict && v.bytes != nil }

// DecodePayload decodes one value arriving for an activity. When buf is
// exactly one canonical dict holding no Ref and no Future, the value has
// no reference for the §2.2 graph to see, so the bytes are not decoded:
// the value is an encoded-form dict over them. Canonical means the bytes are
// the ones Encode writes for the decoded value: minimal uvarints, Bools
// of 0 or 1, keys strictly increasing; the check walks buf without
// allocating. Anything else is decoded. owned hands buf over — nothing
// else reads or writes it from now on — so the value keeps buf, byte
// values included, instead of copying it: the form an intra-node
// sender's own encoding is delivered in (WIRE.md §2, "Payload
// ownership").
func DecodePayload(buf []byte, owned bool) (Value, error) {
	if refFreeDict(buf) {
		if !owned {
			buf = append([]byte(nil), buf...)
		}
		return Value{kind: KindDict, bytes: buf[:len(buf):len(buf)]}, nil
	}
	d := Decoder{alias: owned}
	return d.Decode(buf)
}

// refFreeDict reports whether buf is exactly one canonical dict holding
// no Ref and no Future.
func refFreeDict(buf []byte) bool {
	if len(buf) == 0 || Kind(buf[0]) != KindDict {
		return false
	}
	var r Reader
	r.Reset(buf, errNotRefFree)
	r.skipRefFree(0)
	return r.Done() == nil
}

// FutureRefsIn appends to dst every future reference in enc, one encoded
// value, in the order Value.FutureRefs reports them for its decoding, and
// returns the extended slice. It walks the bytes without decoding them;
// a malformed encoding ends the walk at the fault.
func FutureRefsIn(enc []byte, dst []FutureRef) []FutureRef {
	var r Reader
	r.Reset(enc, errNotRefFree)
	return r.walk(0, dst, false)
}

// Expand returns v as a Value tree: a dict in encoded form is decoded, and
// its byte values share the encoding, which nothing writes once the tree
// exists. Any other value is returned as it is. The runtime expands at the
// boundary to dynamic code — a Behavior's arguments, an untyped future's
// value — so no accessor there decodes the same bytes twice.
func Expand(v Value) Value {
	if !v.isEncoded() {
		return v
	}
	d := Decoder{alias: true}
	t, _ := d.Decode(v.bytes) // canonical: checked when the form was made
	return t
}

// skipRefFree reads past one value and fails the cursor unless the value
// is canonical and holds no Ref and no Future. Every input it accepts,
// Decoder.Decode accepts too, with the same depth limit, into a value
// whose Refs are empty.
func (r *Reader) skipRefFree(depth int) { r.walk(depth, nil, true) }

// walk reads past one value and appends every future it passes to futs.
// strict is skipRefFree's check: the walk then fails on a Ref, a Future
// or a non-canonical encoding.
func (r *Reader) walk(depth int, futs []FutureRef, strict bool) []FutureRef {
	if depth > maxDepth {
		r.Fail()
		return futs
	}
	switch Kind(r.Byte()) {
	case KindNull:
	case KindBool:
		if r.Byte() > 1 && strict {
			r.Fail()
		}
	case KindInt:
		r.Uvarint() // a zig-zag varint is canonical iff its uvarint is
	case KindFloat:
		r.Next(8)
	case KindString, KindBytes:
		r.Bytes()
	case KindList:
		for n := r.Count(r.Len()); n > 0 && r.err == nil; n-- {
			futs = r.walk(depth+1, futs, strict)
		}
	case KindDict:
		var prev []byte
		for i, n := 0, r.Count(r.Len()); i < n && r.err == nil; i++ {
			key := r.Bytes()
			if strict && i > 0 && string(key) <= string(prev) {
				r.Fail()
			}
			prev = key
			futs = r.walk(depth+1, futs, strict)
		}
	case KindRef:
		if strict {
			r.Fail()
		}
		r.Uvarint()
		r.Uvarint()
	case KindFuture:
		if strict {
			r.Fail()
		}
		fr := FutureRef{
			ID:    ids.FutureID{Node: ids.NodeID(r.Uvarint()), Seq: uint32(r.Uvarint())},
			Owner: ids.ActivityID{Node: ids.NodeID(r.Uvarint()), Seq: uint32(r.Uvarint())},
		}
		if r.err == nil {
			futs = append(futs, fr)
		}
	default:
		r.Fail() // no kind at all
	}
	return futs
}
