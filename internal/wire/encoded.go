package wire

// The encoded form: a dict that arrived from another node and carries no
// Ref and no Future stays the bytes it arrived as (WIRE.md §2, "Payload
// ownership"). The receiver copies the bytes out of the transport's
// buffer once; a registered struct then decodes straight from them
// (plan.unmarshalEncoded) without building a Value tree, and a forwarded
// or checkpointed request re-encodes as those same bytes. Every other
// reader sees the decoded value.

import "errors"

// errNotRefFree marks a walk that found a Ref, a Future or a non-canonical
// encoding; it never leaves the package.
var errNotRefFree = errors.New("wire: not a canonical ref-free value")

// isEncoded reports whether v is a dict in encoded form.
func (v Value) isEncoded() bool { return v.kind == KindDict && v.bytes != nil }

// DecodeRefFree returns a copy of buf as an encoded-form dict when buf is
// exactly one canonical dict holding no Ref and no Future: the §2.2 OnRef
// hook would have nothing to report, so the bytes need no decoding here.
// Canonical means the bytes are the ones Encode writes for the decoded
// value: minimal uvarints, Bools of 0 or 1, keys strictly increasing. The
// check walks buf without allocating; when it fails, ok is false and the
// caller decodes buf with its Decoder as before.
func DecodeRefFree(buf []byte) (v Value, ok bool) {
	if len(buf) == 0 || Kind(buf[0]) != KindDict {
		return Value{}, false
	}
	var r Reader
	r.Reset(buf, errNotRefFree)
	r.skipRefFree(0)
	if r.Done() != nil {
		return Value{}, false
	}
	return Value{kind: KindDict, bytes: append([]byte(nil), buf...)}, true
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
// Decoder.Decode accepts too, with the same depth limit, firing no hook.
func (r *Reader) skipRefFree(depth int) {
	if depth > maxDepth {
		r.fail()
		return
	}
	switch Kind(r.Byte()) {
	case KindNull:
	case KindBool:
		if r.Byte() > 1 {
			r.fail()
		}
	case KindInt:
		r.Uvarint() // a zig-zag varint is canonical iff its uvarint is
	case KindFloat:
		r.Next(8)
	case KindString, KindBytes:
		r.Bytes()
	case KindList:
		for n := r.Count(r.Len()); n > 0 && r.err == nil; n-- {
			r.skipRefFree(depth + 1)
		}
	case KindDict:
		var prev []byte
		for i, n := 0, r.Count(r.Len()); i < n && r.err == nil; i++ {
			key := r.Bytes()
			if i > 0 && string(key) <= string(prev) {
				r.fail()
			}
			prev = key
			r.skipRefFree(depth + 1)
		}
	default:
		// Ref, Future, or no kind at all.
		r.fail()
	}
}
