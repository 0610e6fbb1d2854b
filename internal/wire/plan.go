// Cached-plan codec: the struct codec.
//
// Every struct type gets a plan, compiled once on its first use — the
// sorted wire names, the field indices and a small kind tag per field —
// so Marshal/Unmarshal walk a flat field table instead of re-deriving
// the mapping reflectively on every call. A plan marshal emits the dict
// with the plan's shared key slice, so the steady-state cost of
// marshaling a struct is one []Value allocation; a plan unmarshal is a
// single merge walk over two sorted key lists and allocates nothing for
// scalar fields. A dict in encoded form (encoded.go) is decoded the same
// way, straight off its bytes. Codec holds a type's plan so hot call
// sites skip the per-call lookup.
//
// FuzzPlanCodecParity holds the plans byte-identical to a field-by-field
// reflection marshal kept in the tests. Reflection survives in the plan
// compiler and per-field for the field types the flat table does not
// special-case.
package wire

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"

	"repro/internal/ids"
)

// planKind tags the fast-path treatment of one struct field. pkFallback
// routes the field through the generic reflection codec, so a plan never
// changes what lands on the wire — only how fast it gets there.
type planKind uint8

const (
	pkFallback planKind = iota
	pkBool
	pkInt
	pkUint
	pkFloat
	pkString
	pkBytes
	pkFloats
	pkValue
	pkActivityID
	pkFutureRef
)

// planField is one entry of the flat encode/decode table.
type planField struct {
	key       string // wire name (tag-renamed, sorted)
	index     int    // struct field index
	omitEmpty bool
	kind      planKind
}

// plan is the compiled codec of one struct type.
type plan struct {
	// keys holds the wire names in canonical (sorted) order. Every
	// marshal without omitted fields shares this one slice as the dict's
	// dkeys, so repeated marshals of the same type allocate no key
	// storage at all.
	keys   []string
	fields []planField // aligned with keys
}

// planCache maps reflect.Type → *plan for every struct type used so far.
var planCache sync.Map

// planFor returns the plan of t, compiling it on first use. It returns
// nil for a type that is not a struct or that the codec maps otherwise:
// Value, ActivityID, FutureRef, and a FutureSource, which marshals as a
// future identity, never as a field dict.
func planFor(t reflect.Type) *plan {
	if p, ok := planCache.Load(t); ok {
		return p.(*plan)
	}
	if t.Kind() != reflect.Struct || t == valueType || t == activityIDType || t == futureRefType ||
		t.Implements(futureSourceType) {
		return nil
	}
	p, _ := planCache.LoadOrStore(t, compilePlan(t))
	return p.(*plan)
}

// RegisterType compiles the plan of sample's type ahead of its first use.
// Every struct type gets its plan on first use anyway, so this only moves
// the compile off the first call; any other type is ignored, so generic
// call sites can register their Req/Resp parameters unconditionally.
func RegisterType(sample any) {
	if sample != nil {
		planFor(reflect.TypeOf(sample))
	}
}

// compilePlan builds the flat field table: the exported fields, honoring
// wire tags, sorted by wire name (the canonical dict order), with a
// fast-path kind per field.
func compilePlan(t reflect.Type) *plan {
	p := &plan{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		f := planField{key: sf.Name, index: i}
		if tag, ok := sf.Tag.Lookup("wire"); ok {
			name, opts, _ := strings.Cut(tag, ",")
			if name == "-" && opts == "" {
				continue
			}
			if name != "" {
				f.key = name
			}
			for opts != "" {
				var opt string
				opt, opts, _ = strings.Cut(opts, ",")
				if opt == "omitempty" {
					f.omitEmpty = true
				}
			}
		}
		f.kind = classifyField(sf.Type)
		p.fields = append(p.fields, f)
	}
	sort.Slice(p.fields, func(i, j int) bool { return p.fields[i].key < p.fields[j].key })
	for _, f := range p.fields {
		p.keys = append(p.keys, f.key)
	}
	return p
}

// classifyField picks the fast-path treatment for a field type,
// mirroring marshalValue's dispatch order: the special wire types first,
// FutureSource implementors to the fallback, then the kind switch.
// Anything without an exact fast-path twin (slices of structs, maps,
// pointers, interfaces, nested structs) goes through marshalValue, which
// hands a nested struct to its own plan.
func classifyField(t reflect.Type) planKind {
	switch t {
	case valueType:
		return pkValue
	case activityIDType:
		return pkActivityID
	case futureRefType:
		return pkFutureRef
	}
	if t.Implements(futureSourceType) {
		return pkFallback
	}
	switch t.Kind() {
	case reflect.Bool:
		return pkBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return pkInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return pkUint
	case reflect.Float32, reflect.Float64:
		return pkFloat
	case reflect.String:
		return pkString
	case reflect.Slice:
		switch t.Elem().Kind() {
		case reflect.Uint8:
			return pkBytes
		case reflect.Float64:
			return pkFloats
		}
	}
	return pkFallback
}

// marshal encodes one struct value along the plan. With no omitted
// fields the dict's key slice is the plan's shared keys, so the only
// allocation is the value slice (and, unless borrow is set, one copy per
// []byte field).
func (p *plan) marshal(rv reflect.Value, borrow bool) (Value, error) {
	vals := make([]Value, len(p.fields))
	keys, n, err := p.fill(vals, rv, borrow)
	if err != nil {
		return Null(), err
	}
	return Value{kind: KindDict, dkeys: keys, elems: vals[:n]}, nil
}

// encodeAfter is Codec.EncodeAfter for a struct: the field
// values are staged on the stack, so the buffer is the only allocation
// the plan's own fields cost; a type with more fields than the stage
// stages them in one slice.
func (p *plan) encodeAfter(room int, rv reflect.Value) ([]byte, error) {
	var stage [16]Value
	vals := stage[:]
	if len(p.fields) > len(stage) {
		vals = make([]Value, len(p.fields))
	}
	keys, n, err := p.fill(vals, rv, true)
	if err != nil {
		return nil, err
	}
	return encodePairsAfter(room, keys, vals[:n]), nil
}

// fill writes rv's present field values into the first n slots of vals
// (one slot per plan field) and returns their keys: the struct's dict. It returns no Value, so a stage passed in as vals
// does not leave its caller's stack.
func (p *plan) fill(vals []Value, rv reflect.Value, borrow bool) (keys []string, n int, err error) {
	// keys stays nil until a field is omitted; then it is a private copy.
	for i := range p.fields {
		f := &p.fields[i]
		fv := rv.Field(f.index)
		if f.omitEmpty && fv.IsZero() {
			if keys == nil {
				keys = append(make([]string, 0, len(p.fields)-1), p.keys[:n]...)
			}
			continue
		}
		// encodeInto writes the field's value straight into its slot;
		// passing Values through return slots would copy the full struct
		// once per field (runtime.duffcopy, visible in the call profile).
		if err := f.encodeInto(&vals[n], fv, borrow); err != nil {
			return nil, 0, fmt.Errorf("field %s: %w", f.key, err)
		}
		n++
		if keys != nil {
			keys = append(keys, f.key)
		}
	}
	if keys == nil {
		keys = p.keys
	}
	return keys, n, nil
}

func (f *planField) encodeInto(dst *Value, fv reflect.Value, borrow bool) error {
	switch f.kind {
	case pkBool:
		*dst = Bool(fv.Bool())
	case pkInt:
		*dst = Int(fv.Int())
	case pkUint:
		u := fv.Uint()
		if u > math.MaxInt64 {
			return fmt.Errorf("%w: %d overflows int64", ErrMarshal, u)
		}
		*dst = Int(int64(u))
	case pkFloat:
		*dst = Float(fv.Float())
	case pkString:
		*dst = String(fv.String())
	case pkBytes:
		*dst = bytesValue(fv.Bytes(), borrow)
	case pkFloats:
		*dst = Floats(fv.Convert(floatsType).Interface().([]float64))
	case pkValue:
		*dst = fv.Interface().(Value)
	case pkActivityID:
		*dst = Ref(fv.Interface().(ids.ActivityID))
	case pkFutureRef:
		*dst = FutureVal(fv.Interface().(FutureRef))
	default:
		ev, err := marshalValue(fv, borrow)
		if err != nil {
			return err
		}
		*dst = ev
	}
	return nil
}

var floatsType = reflect.TypeOf([]float64(nil))

// unmarshal decodes a dict into one struct value along the plan. The
// caller (unmarshalValue) has already established v.Kind() == KindDict.
// Absent keys leave their fields untouched (an explicit Null entry, by
// contrast, zeroes its field); unknown keys are ignored.
func (p *plan) unmarshal(v Value, rv reflect.Value, owned bool) error {
	if v.isEncoded() {
		return p.unmarshalEncoded(v.bytes, rv, owned)
	}
	// Both key lists are sorted, so one merge walk pairs every present
	// field with its value — no map, no per-key search.
	j := 0
	for i := range p.fields {
		f := &p.fields[i]
		for j < len(v.dkeys) && v.dkeys[j] < f.key {
			j++
		}
		if j < len(v.dkeys) && v.dkeys[j] == f.key {
			if err := f.decode(&v.elems[j], rv.Field(f.index), owned); err != nil {
				return fmt.Errorf("field %s: %w", f.key, err)
			}
			j++
		}
	}
	return nil
}

// decode takes its value by pointer (into the dict's values or a local) so
// the per-field fast paths never copy a full Value; only the reflection
// fallback pays the copy.
func (f *planField) decode(v *Value, rv reflect.Value, owned bool) error {
	kind := kindOf(v) // fields, not value-receiver methods: those copy *v
	if kind == KindNull {
		// Null is the universal zero (see unmarshalValue).
		rv.SetZero()
		return nil
	}
	switch f.kind {
	case pkBool:
		if kind == KindBool {
			rv.SetBool(v.b)
			return nil
		}
	case pkInt:
		if kind == KindInt {
			i := int64(v.num)
			if rv.OverflowInt(i) {
				return fmt.Errorf("%w: %d overflows %s", ErrUnmarshal, i, rv.Type())
			}
			rv.SetInt(i)
			return nil
		}
	case pkUint:
		if kind == KindInt {
			i := int64(v.num)
			if i < 0 || rv.OverflowUint(uint64(i)) {
				return fmt.Errorf("%w: %d overflows %s", ErrUnmarshal, i, rv.Type())
			}
			rv.SetUint(uint64(i))
			return nil
		}
	case pkFloat:
		switch kind {
		case KindFloat:
			rv.SetFloat(math.Float64frombits(v.num))
			return nil
		case KindInt:
			rv.SetFloat(float64(int64(v.num)))
			return nil
		}
	case pkString:
		if kind == KindString {
			rv.SetString(v.s)
			return nil
		}
	case pkBytes:
		if kind == KindBytes {
			rv.SetBytes(ownBytes(v.bytes, owned))
			return nil
		}
	default:
		return unmarshalValue(*v, rv, owned)
	}
	return mismatchKind(kind, rv.Type())
}

// unmarshalEncoded decodes an encoded-form dict straight into the struct:
// one merge walk of the plan's sorted keys against the dict's, which the
// form guarantees strictly increasing. No Value tree is built for
// scalar, string and byte-slice fields (see decodeFrom); a byte slice
// shares enc when owned is set.
func (p *plan) unmarshalEncoded(enc []byte, rv reflect.Value, owned bool) error {
	var r Reader
	r.Reset(enc, ErrTruncated)
	r.Expect(byte(KindDict))
	j := 0
	for n := r.Count(r.Len()); n > 0 && r.err == nil; n-- {
		key := r.Bytes()
		for j < len(p.fields) && p.fields[j].key < string(key) {
			j++
		}
		if j == len(p.fields) || p.fields[j].key != string(key) {
			r.skipRefFree(1) // a key the struct does not have
			continue
		}
		f := &p.fields[j]
		j++
		if err := f.decodeFrom(&r, rv.Field(f.index), owned); err != nil {
			return fmt.Errorf("field %s: %w", f.key, err)
		}
	}
	return r.Err()
}

// decodeFrom reads one field's value off the cursor and hands it to
// decode. A scalar, string or byte-slice field gets its value read into a
// Value on the stack, so no tree is built and the type rules stay decode's;
// any other field decodes its value's subtree.
func (f *planField) decodeFrom(r *Reader, rv reflect.Value, owned bool) error {
	var v Value
	switch f.kind {
	case pkBool, pkInt, pkUint, pkFloat, pkString, pkBytes:
		start := r.buf
		switch v.kind = Kind(r.Byte()); v.kind {
		case KindNull:
		case KindBool:
			v.b = r.Byte() != 0
		case KindInt:
			v.num = uint64(unzigzag(r.Uvarint()))
		case KindFloat:
			v.num = r.U64()
		case KindString:
			v.s = r.String()
		case KindBytes:
			v.bytes = r.Bytes()
		default:
			// A list or dict, which decode refuses by its kind alone.
			r.buf = start
			r.skipRefFree(1)
		}
	default:
		d := Decoder{alias: owned}
		v = r.Value(&d)
	}
	if err := r.Err(); err != nil {
		return err
	}
	return f.decode(&v, rv, owned)
}

// unzigzag undoes binary.AppendVarint's zig-zag mapping.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Codec is the struct codec of one Go type with its plan looked up once,
// for call sites that encode or unmarshal the same type on every call
// (typed stubs, service methods, typed futures). The zero Codec is valid:
// it looks the plan up per call, like Marshal and Unmarshal.
type Codec[T any] struct{ p *plan }

// CodecFor returns T's codec, with T's plan when T is a struct.
func CodecFor[T any]() Codec[T] { return Codec[T]{p: planFor(reflect.TypeFor[T]())} }

// EncodeAfter returns the encoding of v behind room zero bytes, which
// the caller fills in later (an envelope header), in one buffer of
// exactly that size. The bytes are Encode(nil, Marshal(v)); a struct held
// in the codec is encoded along its plan without a Value in between, and
// v's byte slices are read, not kept.
func (c Codec[T]) EncodeAfter(room int, v T) ([]byte, error) {
	if c.p != nil {
		// Through an interface, like Marshal: taking &v instead would
		// move v to the heap on the no-plan path too.
		return c.p.encodeAfter(room, reflect.ValueOf(any(v)))
	}
	val, err := marshalAny(v, true)
	if err != nil {
		return nil, err
	}
	return encodeAfter(room, &val), nil
}

// Unmarshal is wire.Unmarshal into a T; out must not be nil.
func (c Codec[T]) Unmarshal(v Value, out *T) error { return c.unmarshal(v, out, false) }

// UnmarshalOwned is Unmarshal for a value nothing else reads: byte slices
// in out share v's data instead of copying it. The runtime uses it for a
// request's arguments, which each request owns.
func (c Codec[T]) UnmarshalOwned(v Value, out *T) error { return c.unmarshal(v, out, true) }

func (c Codec[T]) unmarshal(v Value, out *T, owned bool) error {
	rv := reflect.ValueOf(out).Elem()
	if c.p == nil || v.Kind() != KindDict {
		return unmarshalValue(v, rv, owned) // which zeroes on Null, refuses the rest
	}
	return c.p.unmarshal(v, rv, owned)
}
