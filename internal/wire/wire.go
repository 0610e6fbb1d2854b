// Package wire defines the closed value model exchanged between activities
// and its binary codec.
//
// Every communication between active objects — local or remote — goes
// through a serialization and deserialization step (paper §2.1, footnote 1).
// This is what makes the no-sharing property hold by construction: a value
// crossing an activity boundary is always a deep copy, so no passive object
// (including stubs of remote activities) is ever shared between two
// activities.
//
// The paper's §2.2 builds the reference graph from the stubs that
// deserialization creates. Here a decoded value carries its references
// (Value.Refs, future owners included), and the local collector derives
// the graph's edges from the values it pins (internal/localgc).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/ids"
)

// Kind enumerates the value kinds of the model.
type Kind uint8

// Value kinds. They start at 1 so that a zero tag byte is invalid and
// corruption is detected early.
const (
	KindNull Kind = iota + 1
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindList
	KindDict
	KindRef
	KindFuture
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindList:
		return "list"
	case KindDict:
		return "dict"
	case KindRef:
		return "ref"
	case KindFuture:
		return "future"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// FutureRef is the payload of a future value: the identity a not-yet-
// resolved result travels under when it is passed as a call argument or
// returned onward (ASP's first-class futures, paper §5–§6). ID names the
// future on its home node; Owner is the activity the asynchronous call was
// made on behalf of. The owner rides along so that holding a future keeps
// the owner activity alive in the DGC's reference graph exactly as
// holding a plain reference would — a forwarded-but-unresolved future can
// never outlive the activity that must still receive its updates.
type FutureRef struct {
	// ID identifies the future on its home node.
	ID ids.FutureID
	// Owner is the activity on whose behalf the call was made.
	Owner ids.ActivityID
}

// IsZero reports whether the reference is the zero "no future" value.
func (fr FutureRef) IsZero() bool { return fr == FutureRef{} }

// String implements fmt.Stringer.
func (fr FutureRef) String() string {
	return fmt.Sprintf("future(%s@%s)", fr.ID, fr.Owner)
}

// FutureSource is implemented by runtime future handles (e.g. the active
// package's *Future and *TypedFuture) so they can be marshaled directly
// into call arguments and results. WireFutureRef reports the wire identity
// and whether one exists — a pre-resolved handle with no wire identity
// (e.g. a one-way call's placeholder) marshals as Null instead.
type FutureSource interface {
	WireFutureRef() (FutureRef, bool)
}

// Value is a node of the closed value model. Exactly the fields relevant to
// Kind are meaningful. Construct values with the helper constructors; the
// zero Value is the null value.
// Mutually exclusive kinds share fields to keep the struct small: Value is
// copied on every queue push, serve and marshal, so its size is directly
// visible in the hot-path profile (runtime.duffcopy).
type Value struct {
	kind Kind
	b    bool
	// num carries the integer payload of KindInt (int64 bit pattern) and
	// the IEEE-754 bits of KindFloat.
	num uint64
	s   string
	// bytes is the KindBytes payload, or the encoding of a dict in
	// encoded form.
	bytes []byte
	// elems holds the elements of a list (KindList) and the values of a
	// dict (KindDict), aligned with dkeys.
	elems []Value
	// A dict is its sorted pairs: dkeys holds the keys, strictly
	// increasing, and elems their values. Dict sorts once, and the struct
	// codec and the decoder produce the canonical order directly, so a
	// dict encodes, walks and deep-copies in key order without sorting
	// or map iteration. A dict received from another node may instead
	// stay in encoded form (encoded.go): bytes then holds its canonical
	// encoding, tag included, and dkeys and elems are nil.
	dkeys []string
	// ref is the target of KindRef and the owner activity of KindFuture;
	// fid is the future's home identity (together they form a FutureRef).
	ref ids.ActivityID
	fid ids.FutureID
}

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bytes returns a byte-blob value. The slice is copied to keep values
// immutable at boundaries.
func Bytes(v []byte) Value {
	cp := make([]byte, len(v))
	copy(cp, v)
	return Value{kind: KindBytes, bytes: cp}
}

// Floats packs a []float64 into a byte-blob value without copying each
// element into a separate Value. This is how the NAS kernels ship vectors.
func Floats(v []float64) Value {
	buf := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	return Value{kind: KindBytes, bytes: buf}
}

// List returns a list value. The slice is copied.
func List(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return Value{kind: KindList, elems: cp}
}

// Dict returns a dictionary value. The map is copied, its keys sorted.
func Dict(m map[string]Value) Value {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]Value, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return Value{kind: KindDict, dkeys: keys, elems: vals}
}

// Ref returns a remote-reference value (a stub) designating target.
func Ref(target ids.ActivityID) Value {
	return Value{kind: KindRef, ref: target}
}

// FutureVal returns a future value: a first-class placeholder for a
// result that may not exist yet. The runtime resolves it to the concrete
// value at whichever activity finally touches it (wait-by-necessity).
func FutureVal(fr FutureRef) Value {
	return Value{kind: KindFuture, fid: fr.ID, ref: fr.Owner}
}

// Kind returns the value's kind. The zero Value reports KindNull.
func (v Value) Kind() Kind {
	if v.kind == 0 {
		return KindNull
	}
	return v.kind
}

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.Kind() == KindNull }

// AsBool returns the boolean payload (false if not a bool).
func (v Value) AsBool() bool { return v.kind == KindBool && v.b }

// AsInt returns the integer payload (0 if not an int).
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.num)
}

// AsFloat returns the float payload (0 if not a float).
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.num)
}

// AsString returns the string payload ("" if not a string).
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// AsBytes returns the blob payload (nil if not bytes). The returned slice
// must not be mutated.
func (v Value) AsBytes() []byte {
	if v.kind != KindBytes {
		return nil
	}
	return v.bytes
}

// AsFloats unpacks a blob created by Floats. It returns nil if the value is
// not a blob or its size is not a multiple of 8.
func (v Value) AsFloats() []float64 {
	if v.kind != KindBytes || len(v.bytes)%8 != 0 {
		return nil
	}
	out := make([]float64, len(v.bytes)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(v.bytes[8*i:]))
	}
	return out
}

// Len returns the number of elements of a list or dict, the byte length of
// a blob or string, and 0 otherwise.
func (v Value) Len() int {
	switch v.kind {
	case KindList, KindDict:
		if v.isEncoded() {
			n, _ := binary.Uvarint(v.bytes[1:])
			return int(n)
		}
		return len(v.elems)
	case KindBytes:
		return len(v.bytes)
	case KindString:
		return len(v.s)
	default:
		return 0
	}
}

// At returns the i-th element of a list (null if out of range or not a
// list).
func (v Value) At(i int) Value {
	if v.kind != KindList || i < 0 || i >= len(v.elems) {
		return Null()
	}
	return v.elems[i]
}

// Get returns the dict entry for key (null if absent or not a dict).
func (v Value) Get(key string) Value {
	if v.isEncoded() {
		return Expand(v).Get(key)
	}
	if i, ok := slices.BinarySearch(v.dkeys, key); ok { // only a dict has keys
		return v.elems[i]
	}
	return Null()
}

// Keys returns the sorted keys of a dict (nil otherwise).
func (v Value) Keys() []string {
	if v.kind != KindDict {
		return nil
	}
	if v.isEncoded() {
		return Expand(v).dkeys
	}
	// Already sorted; copy so callers may keep it.
	return append([]string(nil), v.dkeys...)
}

// AsRef returns the target of a reference value and whether the value is a
// reference.
func (v Value) AsRef() (ids.ActivityID, bool) {
	if v.kind != KindRef {
		return ids.Nil, false
	}
	return v.ref, true
}

// AsFutureRef returns the identity of a future value and whether the
// value is a future.
func (v Value) AsFutureRef() (FutureRef, bool) {
	if v.kind != KindFuture {
		return FutureRef{}, false
	}
	return FutureRef{ID: v.fid, Owner: v.ref}, true
}

// Refs appends to dst the targets of every reference reachable from v
// (including v itself) and returns the extended slice. Order is
// deterministic: depth-first, list order, sorted dict keys. A future
// value contributes its owner activity: holding a future references the
// activity the result belongs to, so the reference graph sees the edge.
func (v Value) Refs(dst []ids.ActivityID) []ids.ActivityID {
	switch v.kind {
	case KindRef:
		return append(dst, v.ref)
	case KindFuture:
		return append(dst, v.ref)
	case KindList, KindDict:
		// The encoded form has no elems and, by construction, no
		// reference either.
		for _, e := range v.elems {
			dst = e.Refs(dst)
		}
		return dst
	default:
		return dst
	}
}

// FutureRefs appends to dst every future reference reachable from v
// (including v itself) and returns the extended slice, in the same
// deterministic order as Refs. The runtime walks outgoing payloads with
// it to register the destination as a holder of each forwarded future.
func (v Value) FutureRefs(dst []FutureRef) []FutureRef {
	switch v.kind {
	case KindFuture:
		return append(dst, FutureRef{ID: v.fid, Owner: v.ref})
	case KindList, KindDict:
		for _, e := range v.elems {
			dst = e.FutureRefs(dst)
		}
		return dst
	default:
		return dst
	}
}

// Equal reports deep structural equality.
func (v Value) Equal(o Value) bool {
	if v.Kind() != o.Kind() {
		return false
	}
	switch v.Kind() {
	case KindNull:
		return true
	case KindBool:
		return v.b == o.b
	case KindInt:
		return v.num == o.num
	case KindFloat:
		vf, of := math.Float64frombits(v.num), math.Float64frombits(o.num)
		return vf == of || (math.IsNaN(vf) && math.IsNaN(of))
	case KindString:
		return v.s == o.s
	case KindBytes:
		if len(v.bytes) != len(o.bytes) {
			return false
		}
		for i := range v.bytes {
			if v.bytes[i] != o.bytes[i] {
				return false
			}
		}
		return true
	case KindList, KindDict:
		if v.isEncoded() || o.isEncoded() {
			// Not bytes.Equal: NaN equals NaN here, and 0 equals -0.
			return Expand(v).Equal(Expand(o))
		}
		if len(v.elems) != len(o.elems) || !slices.Equal(v.dkeys, o.dkeys) {
			return false
		}
		for i := range v.elems {
			if !v.elems[i].Equal(o.elems[i]) {
				return false
			}
		}
		return true
	case KindRef:
		return v.ref == o.ref
	case KindFuture:
		return v.fid == o.fid && v.ref == o.ref
	default:
		return false
	}
}

// String implements fmt.Stringer for debugging.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "null"
	case KindBool:
		return fmt.Sprintf("%t", v.b)
	case KindInt:
		return fmt.Sprintf("%d", int64(v.num))
	case KindFloat:
		return fmt.Sprintf("%g", math.Float64frombits(v.num))
	case KindString:
		return fmt.Sprintf("%q", v.s)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.bytes))
	case KindList:
		return fmt.Sprintf("list[%d]", len(v.elems))
	case KindDict:
		return fmt.Sprintf("dict[%d]", v.Len())
	case KindRef:
		return fmt.Sprintf("ref(%s)", v.ref)
	case KindFuture:
		return FutureRef{ID: v.fid, Owner: v.ref}.String()
	default:
		return "invalid"
	}
}

// Errors returned by the decoder.
var (
	// ErrTruncated indicates the buffer ended inside a value.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrBadTag indicates an unknown kind tag.
	ErrBadTag = errors.New("wire: invalid kind tag")
	// ErrTrailing indicates bytes remain after the top-level value.
	ErrTrailing = errors.New("wire: trailing bytes after value")
	// ErrTooDeep indicates nesting beyond the decoder limit.
	ErrTooDeep = errors.New("wire: value nesting too deep")
	// ErrMalformed indicates a dict whose keys are not strictly
	// increasing: unsorted, or duplicated.
	ErrMalformed = errors.New("wire: dict keys not strictly increasing")
)

// maxDepth bounds decoder recursion to keep hostile or corrupted inputs
// from exhausting the stack.
const maxDepth = 64

// Encode appends the serialized form of v to dst and returns the extended
// slice.
func Encode(dst []byte, v Value) []byte {
	return encodeTo(dst, &v)
}

// EncodeAfter returns the encoding of v behind room zero bytes, which
// the caller fills in later (an envelope header), in one buffer of
// exactly that size.
func EncodeAfter(room int, v Value) []byte { return encodeAfter(room, &v) }

func encodeAfter(room int, v *Value) []byte {
	return encodeTo(make([]byte, room, room+sizeOf(v)), v)
}

// encodePairsAfter is encodeAfter for a dict given as its keys and
// values (see appendPairs).
func encodePairsAfter(room int, keys []string, vals []Value) []byte {
	v := Value{kind: KindDict, dkeys: keys, elems: vals}
	return appendPairs(append(make([]byte, room, room+sizeOf(&v)), byte(KindDict)), keys, vals)
}

// encodeTo recurses by pointer so nested lists and dicts do not copy each
// element Value per level.
func encodeTo(dst []byte, v *Value) []byte {
	kind := kindOf(v)
	dst = append(dst, byte(kind))
	switch kind {
	case KindNull:
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.num))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.num)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.bytes)))
		dst = append(dst, v.bytes...)
	case KindList:
		dst = binary.AppendUvarint(dst, uint64(len(v.elems)))
		for i := range v.elems {
			dst = encodeTo(dst, &v.elems[i])
		}
	case KindDict:
		if v.bytes != nil {
			// Encoded form: its bytes, which start with the tag written
			// above. (Checked here, not ahead of the switch, so no other
			// kind pays for it.)
			return append(dst[:len(dst)-1], v.bytes...)
		}
		// Already in canonical key order: no sort and no key-slice
		// allocation on the way out.
		dst = appendPairs(dst, v.dkeys, v.elems)
	case KindRef:
		dst = binary.AppendUvarint(dst, uint64(v.ref.Node))
		dst = binary.AppendUvarint(dst, uint64(v.ref.Seq))
	case KindFuture:
		dst = binary.AppendUvarint(dst, uint64(v.fid.Node))
		dst = binary.AppendUvarint(dst, uint64(v.fid.Seq))
		dst = binary.AppendUvarint(dst, uint64(v.ref.Node))
		dst = binary.AppendUvarint(dst, uint64(v.ref.Seq))
	}
	return dst
}

// appendPairs encodes the body of a dict — the count, then each key and
// value. The values are passed by slice, not inside a Value, so a
// caller's stack-staged slice stays on its stack.
func appendPairs(dst []byte, keys []string, vals []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for i, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = encodeTo(dst, &vals[i])
	}
	return dst
}

// EncodedSize returns the number of bytes Encode would produce for v. This
// is the quantity the traffic accounting measures, and what the send path
// sizes its buffer with: a pure walk, no allocation and no encode.
func EncodedSize(v Value) int {
	return sizeOf(&v)
}

// sizeOf mirrors encodeTo case by case.
func sizeOf(v *Value) int {
	n := 1 // kind tag
	switch kindOf(v) {
	case KindBool:
		n++
	case KindInt:
		x := int64(v.num)
		n += uvarintLen(uint64(x<<1) ^ uint64(x>>63)) // zigzag, as AppendVarint
	case KindFloat:
		n += 8
	case KindString:
		n += lenPrefixed(len(v.s))
	case KindBytes:
		n += lenPrefixed(len(v.bytes))
	case KindList, KindDict:
		if v.bytes != nil {
			return len(v.bytes) // a dict in encoded form, tag included
		}
		n += uvarintLen(uint64(len(v.elems)))
		for i := range v.elems {
			n += sizeOf(&v.elems[i])
		}
		for _, k := range v.dkeys { // a dict's keys, one per element
			n += lenPrefixed(len(k))
		}
	case KindRef:
		n += uvarintLen(uint64(v.ref.Node)) + uvarintLen(uint64(v.ref.Seq))
	case KindFuture:
		n += uvarintLen(uint64(v.fid.Node)) + uvarintLen(uint64(v.fid.Seq)) +
			uvarintLen(uint64(v.ref.Node)) + uvarintLen(uint64(v.ref.Seq))
	}
	return n
}

// kindOf is Value.Kind for the pointer walks: calling a value-receiver
// method through a *Value copies all of the Value first.
func kindOf(v *Value) Kind {
	if v.kind == 0 {
		return KindNull
	}
	return v.kind
}

// lenPrefixed is the encoded size of n bytes behind their uvarint length.
func lenPrefixed(n int) int { return uvarintLen(uint64(n)) + n }

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Decoder decodes encoded values. The zero Decoder copies every decoded
// byte value out of its input.
type Decoder struct {
	// alias makes decoded Bytes values share buf (capacity-capped) instead
	// of copying it: set only for a buffer that nothing else writes.
	alias bool
}

// Decode decodes a single value from buf, which must contain exactly one
// value.
func (d *Decoder) Decode(buf []byte) (Value, error) {
	v, rest, err := d.decode(buf, 0)
	if err != nil {
		return Null(), err
	}
	if len(rest) != 0 {
		return Null(), fmt.Errorf("%w: %d bytes", ErrTrailing, len(rest))
	}
	return v, nil
}

// DecodePrefix decodes one value from the front of buf and returns the
// remaining bytes.
func (d *Decoder) DecodePrefix(buf []byte) (Value, []byte, error) {
	return d.decode(buf, 0)
}

func (d *Decoder) decode(buf []byte, depth int) (Value, []byte, error) {
	if depth > maxDepth {
		return Null(), nil, ErrTooDeep
	}
	if len(buf) == 0 {
		return Null(), nil, ErrTruncated
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case KindNull:
		return Null(), buf, nil
	case KindBool:
		if len(buf) < 1 {
			return Null(), nil, ErrTruncated
		}
		return Bool(buf[0] != 0), buf[1:], nil
	case KindInt:
		i, n := binary.Varint(buf)
		if n <= 0 {
			return Null(), nil, ErrTruncated
		}
		return Int(i), buf[n:], nil
	case KindFloat:
		if len(buf) < 8 {
			return Null(), nil, ErrTruncated
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		return Float(f), buf[8:], nil
	case KindString:
		s, rest, err := decodeLenPrefixed(buf)
		if err != nil {
			return Null(), nil, err
		}
		return String(string(s)), rest, nil
	case KindBytes:
		b, rest, err := decodeLenPrefixed(buf)
		if err != nil {
			return Null(), nil, err
		}
		if d.alias {
			return Value{kind: KindBytes, bytes: b[:len(b):len(b)]}, rest, nil
		}
		return Bytes(b), rest, nil
	case KindList:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return Null(), nil, ErrTruncated
		}
		buf = buf[sz:]
		if n > uint64(len(buf)) {
			// Each element needs at least one byte; reject absurd counts
			// before allocating.
			return Null(), nil, ErrTruncated
		}
		elems := make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			var (
				e   Value
				err error
			)
			e, buf, err = d.decode(buf, depth+1)
			if err != nil {
				return Null(), nil, err
			}
			elems = append(elems, e)
		}
		return Value{kind: KindList, elems: elems}, buf, nil
	case KindDict:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return Null(), nil, ErrTruncated
		}
		buf = buf[sz:]
		if n > uint64(len(buf)) {
			return Null(), nil, ErrTruncated
		}
		// Keys must arrive in canonical, strictly increasing order — the
		// order every encoder emits — so a dict decodes into its sorted
		// keys and values and re-encodes to the same bytes. Unsorted or
		// duplicate keys are malformed (WIRE.md §1).
		keys := make([]string, 0, n)
		vals := make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			k, rest, err := decodeLenPrefixed(buf)
			if err != nil {
				return Null(), nil, err
			}
			buf = rest
			ks := string(k)
			if len(keys) > 0 && ks <= keys[len(keys)-1] {
				return Null(), nil, ErrMalformed
			}
			var e Value
			e, buf, err = d.decode(buf, depth+1)
			if err != nil {
				return Null(), nil, err
			}
			keys = append(keys, ks)
			vals = append(vals, e)
		}
		return Value{kind: KindDict, dkeys: keys, elems: vals}, buf, nil
	case KindRef:
		node, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return Null(), nil, ErrTruncated
		}
		buf = buf[sz:]
		seq, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return Null(), nil, ErrTruncated
		}
		buf = buf[sz:]
		return Ref(ids.ActivityID{Node: ids.NodeID(node), Seq: uint32(seq)}), buf, nil
	case KindFuture:
		var raw [4]uint64
		for i := range raw {
			x, sz := binary.Uvarint(buf)
			if sz <= 0 {
				return Null(), nil, ErrTruncated
			}
			raw[i] = x
			buf = buf[sz:]
		}
		return FutureVal(FutureRef{
			ID:    ids.FutureID{Node: ids.NodeID(raw[0]), Seq: uint32(raw[1])},
			Owner: ids.ActivityID{Node: ids.NodeID(raw[2]), Seq: uint32(raw[3])},
		}), buf, nil
	default:
		return Null(), nil, fmt.Errorf("%w: %d", ErrBadTag, uint8(kind))
	}
}

func decodeLenPrefixed(buf []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, ErrTruncated
	}
	buf = buf[sz:]
	if n > uint64(len(buf)) {
		return nil, nil, ErrTruncated
	}
	return buf[:n], buf[n:], nil
}

// Rebind returns a copy of v in which every reference to from designates
// to instead. Future values rebind their Owner the same way: holding a
// future is holding a reference to its owner activity, so when that
// activity migrates (its identifier changes with its node), the edge the
// reference graph sees must follow. Values without any occurrence of from
// are returned unchanged (no copy). The future's home identity (FutureRef.ID)
// is never rewritten — futures do not migrate; their home table stays put.
func Rebind(v Value, from, to ids.ActivityID) Value {
	if from.IsNil() || from == to {
		return v
	}
	out, _ := rebind(v, from, to)
	return out
}

func rebind(v Value, from, to ids.ActivityID) (Value, bool) {
	switch v.kind {
	case KindRef:
		if v.ref == from {
			return Ref(to), true
		}
		return v, false
	case KindFuture:
		if v.ref == from {
			return FutureVal(FutureRef{ID: v.fid, Owner: to}), true
		}
		return v, false
	case KindList, KindDict:
		var cp []Value
		for i, e := range v.elems {
			r, changed := rebind(e, from, to)
			if cp == nil {
				if !changed {
					continue
				}
				cp = make([]Value, len(v.elems))
				copy(cp, v.elems)
			}
			cp[i] = r
		}
		if cp == nil {
			return v, false
		}
		// A dict's keys are immutable; the copy shares them.
		return Value{kind: v.kind, dkeys: v.dkeys, elems: cp}, true
	default:
		return v, false
	}
}

// DeepCopy returns a structurally independent copy of v: it shares no
// byte or element slice with v, only the immutable dict keys. The runtime
// does not call it: a value between two activities, even on one node,
// travels encoded (WIRE.md §2).
func DeepCopy(v Value) Value {
	deepenInPlace(&v)
	return v
}

// deepCopyElems copies an element slice wholesale and deepens each copied
// slot in place. Addresses are only ever taken of the fresh heap slice's
// elements — never of a parameter or local — so the recursion moves
// pointers instead of full Values (runtime.duffcopy) without forcing any
// stack Value to escape.
func deepCopyElems(elems []Value) []Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	for i := range cp {
		deepenInPlace(&cp[i])
	}
	return cp
}

// deepenInPlace replaces every shared mutable container reachable from v
// with a private copy, mutating v's own fields directly.
func deepenInPlace(v *Value) {
	// The only mutable fields: a blob's or an encoded dict's bytes, and a
	// list's or a dict's elements. Dict keys are immutable strings, shared.
	v.bytes = bytes.Clone(v.bytes)
	if v.elems != nil {
		v.elems = deepCopyElems(v.elems)
	}
}
