// Struct codec: a bridge between Go values and the closed value model.
//
// Marshal and Unmarshal let application code exchange plain Go structs
// while everything on the wire remains the closed model of this package —
// so the no-sharing property and the reference graph built from decoded
// values' Refs (paper §2.1–§2.2) keep holding by construction. A remote
// reference never hides inside an opaque blob: it is either an explicit
// wire.Value field passed through verbatim, or an ids.ActivityID field
// mapped to a Ref node, and in both cases Value.Refs reports it. Structs
// go through their compiled plan (plan.go); every other kind through
// reflection.
//
// The mapping:
//
//	bool                    ⇄ Bool
//	int, int8..int64        ⇄ Int
//	uint, uint8..uint64     ⇄ Int (marshal fails above MaxInt64)
//	float32, float64        ⇄ Float
//	string                  ⇄ String
//	[]byte                  ⇄ Bytes
//	[]float64               ⇄ Bytes (packed, as Floats — the NAS fast path)
//	other slices, arrays    ⇄ List
//	map[string]T            ⇄ Dict
//	struct                  ⇄ Dict keyed by field name or `wire:"name"` tag
//	pointer                 ⇄ Null when nil, else the element
//	ids.ActivityID          ⇄ Ref
//	wire.FutureRef          ⇄ Future (first-class future identity)
//	wire.FutureSource       → Future (marshal only: runtime future handles)
//	wire.Value              ⇄ passed through verbatim
//	any (unmarshal only)    ← nil, bool, int64, float64, string, []byte,
//	                          []any, map[string]any, ids.ActivityID,
//	                          wire.FutureRef
//
// Struct tags follow the encoding/json convention: `wire:"name"` renames,
// `wire:"-"` skips, `wire:",omitempty"` drops zero values on marshal.
// Unexported fields are ignored. Embedded structs are encoded under their
// type name like any other field (no flattening). A Null value
// unmarshals into any target as its zero value, so Null() arguments from
// dynamic callers satisfy typed no-argument methods.
package wire

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"repro/internal/ids"
)

// Codec errors.
var (
	// ErrMarshal indicates a Go value outside the closed model's reach.
	ErrMarshal = errors.New("wire: unmarshalable Go value")
	// ErrUnmarshal indicates a Value/Go-type mismatch.
	ErrUnmarshal = errors.New("wire: cannot unmarshal")
)

var (
	valueType        = reflect.TypeOf(Value{})
	activityIDType   = reflect.TypeOf(ids.ActivityID{})
	futureRefType    = reflect.TypeOf(FutureRef{})
	futureSourceType = reflect.TypeOf((*FutureSource)(nil)).Elem()
)

// Marshal maps a Go value onto the closed value model.
func Marshal(v any) (Value, error) { return marshalAny(v, false) }

// MarshalBorrow is Marshal without the copy of byte slices: the Value
// shares v's []byte data, so it must be encoded before that data changes.
// CallTyped and SendTyped use it: their request is encoded before the
// call returns.
func MarshalBorrow(v any) (Value, error) { return marshalAny(v, true) }

func marshalAny(v any, borrow bool) (Value, error) {
	if v == nil {
		return Null(), nil
	}
	return marshalValue(reflect.ValueOf(v), borrow)
}

func marshalValue(rv reflect.Value, borrow bool) (Value, error) {
	switch rv.Type() {
	case valueType:
		return rv.Interface().(Value), nil
	case activityIDType:
		return Ref(rv.Interface().(ids.ActivityID)), nil
	case futureRefType:
		return FutureVal(rv.Interface().(FutureRef)), nil
	}
	// Runtime future handles (*active.Future, *active.TypedFuture) marshal
	// to future values: passing a future is passing its wire identity, not
	// its (possibly not yet existing) result.
	if rv.Type().Implements(futureSourceType) && (rv.Kind() != reflect.Pointer || !rv.IsNil()) {
		if fr, ok := rv.Interface().(FutureSource).WireFutureRef(); ok {
			return FutureVal(fr), nil
		}
		return Null(), nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		return Bool(rv.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return Int(rv.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		u := rv.Uint()
		if u > math.MaxInt64 {
			return Null(), fmt.Errorf("%w: %d overflows int64", ErrMarshal, u)
		}
		return Int(int64(u)), nil
	case reflect.Float32, reflect.Float64:
		return Float(rv.Float()), nil
	case reflect.String:
		return String(rv.String()), nil
	case reflect.Slice:
		switch rv.Type().Elem().Kind() {
		case reflect.Uint8:
			return bytesValue(rv.Bytes(), borrow), nil
		case reflect.Float64:
			return Floats(rv.Convert(reflect.TypeOf([]float64(nil))).Interface().([]float64)), nil
		}
		return marshalList(rv, borrow)
	case reflect.Array:
		return marshalList(rv, borrow)
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return Null(), fmt.Errorf("%w: map key type %s (need string)", ErrMarshal, rv.Type().Key())
		}
		mk := rv.MapKeys()
		slices.SortFunc(mk, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		keys, vals := make([]string, len(mk)), make([]Value, len(mk))
		for i, k := range mk {
			ev, err := marshalValue(rv.MapIndex(k), borrow)
			if err != nil {
				return Null(), err
			}
			keys[i], vals[i] = k.String(), ev
		}
		return Value{kind: KindDict, dkeys: keys, elems: vals}, nil
	case reflect.Struct:
		return planFor(rv.Type()).marshal(rv, borrow)
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return Null(), nil
		}
		return marshalValue(rv.Elem(), borrow)
	default:
		return Null(), fmt.Errorf("%w: type %s", ErrMarshal, rv.Type())
	}
}

// bytesValue is a Bytes value that shares b when borrow is set.
func bytesValue(b []byte, borrow bool) Value {
	if borrow {
		return Value{kind: KindBytes, bytes: b}
	}
	return Bytes(b)
}

func marshalList(rv reflect.Value, borrow bool) (Value, error) {
	elems := make([]Value, rv.Len())
	for i := range elems {
		ev, err := marshalValue(rv.Index(i), borrow)
		if err != nil {
			return Null(), err
		}
		elems[i] = ev
	}
	return Value{kind: KindList, elems: elems}, nil
}

// Unmarshal maps a Value back onto the Go value out points to. out must be
// a non-nil pointer. Dict keys with no matching struct field are ignored;
// struct fields with no matching key are left untouched. Byte slices in
// out never share v's data.
func Unmarshal(v Value, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("%w: target must be a non-nil pointer, got %T", ErrUnmarshal, out)
	}
	return unmarshalValue(v, rv.Elem(), false)
}

// unmarshalValue decodes v into rv. owned says that nothing else reads v,
// so byte slices in rv may share its data instead of copying it.
func unmarshalValue(v Value, rv reflect.Value, owned bool) error {
	if v.IsNull() {
		// Null is the universal zero: a dynamic caller's Null() arguments
		// land in a typed method's zero Req, nil pointers/slices/maps
		// round-trip, and absent never means "error".
		rv.SetZero()
		return nil
	}
	if v.isEncoded() && rv.Kind() != reflect.Pointer {
		// A struct decodes straight from the bytes; every other target
		// reads the decoded tree.
		if p := planFor(rv.Type()); p != nil {
			return p.unmarshalEncoded(v.bytes, rv, owned)
		}
		v = Expand(v)
	}
	switch rv.Type() {
	case valueType:
		rv.Set(reflect.ValueOf(v))
		return nil
	case activityIDType:
		target, ok := v.AsRef()
		if !ok {
			return mismatch(v, rv.Type())
		}
		rv.Set(reflect.ValueOf(target))
		return nil
	case futureRefType:
		fr, ok := v.AsFutureRef()
		if !ok {
			return mismatch(v, rv.Type())
		}
		rv.Set(reflect.ValueOf(fr))
		return nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		if v.Kind() != KindBool {
			return mismatch(v, rv.Type())
		}
		rv.SetBool(v.AsBool())
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Kind() != KindInt {
			return mismatch(v, rv.Type())
		}
		if rv.OverflowInt(v.AsInt()) {
			return fmt.Errorf("%w: %d overflows %s", ErrUnmarshal, v.AsInt(), rv.Type())
		}
		rv.SetInt(v.AsInt())
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if v.Kind() != KindInt {
			return mismatch(v, rv.Type())
		}
		i := v.AsInt()
		if i < 0 || rv.OverflowUint(uint64(i)) {
			return fmt.Errorf("%w: %d overflows %s", ErrUnmarshal, i, rv.Type())
		}
		rv.SetUint(uint64(i))
		return nil
	case reflect.Float32, reflect.Float64:
		switch v.Kind() {
		case KindFloat:
			rv.SetFloat(v.AsFloat())
		case KindInt:
			rv.SetFloat(float64(v.AsInt()))
		default:
			return mismatch(v, rv.Type())
		}
		return nil
	case reflect.String:
		if v.Kind() != KindString {
			return mismatch(v, rv.Type())
		}
		rv.SetString(v.AsString())
		return nil
	case reflect.Slice:
		return unmarshalSlice(v, rv, owned)
	case reflect.Array:
		if v.Kind() != KindList || v.Len() != rv.Len() {
			return mismatch(v, rv.Type())
		}
		for i := 0; i < rv.Len(); i++ {
			if err := unmarshalValue(v.At(i), rv.Index(i), owned); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if rv.Type().Key().Kind() != reflect.String {
			return fmt.Errorf("%w: map key type %s (need string)", ErrUnmarshal, rv.Type().Key())
		}
		if v.Kind() != KindDict {
			return mismatch(v, rv.Type())
		}
		m := reflect.MakeMapWithSize(rv.Type(), v.Len())
		et := rv.Type().Elem()
		for i, k := range v.dkeys { // v is expanded: see above
			ev := reflect.New(et).Elem()
			if err := unmarshalValue(v.elems[i], ev, owned); err != nil {
				return fmt.Errorf("key %q: %w", k, err)
			}
			m.SetMapIndex(reflect.ValueOf(k).Convert(rv.Type().Key()), ev)
		}
		rv.Set(m)
		return nil
	case reflect.Struct:
		// A FutureSource struct has no plan: it marshals to a future.
		p := planFor(rv.Type())
		if p == nil || v.Kind() != KindDict {
			return mismatch(v, rv.Type())
		}
		return p.unmarshal(v, rv, owned)
	case reflect.Pointer:
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		return unmarshalValue(v, rv.Elem(), owned)
	case reflect.Interface:
		if rv.NumMethod() != 0 {
			return fmt.Errorf("%w: non-empty interface %s", ErrUnmarshal, rv.Type())
		}
		got := toAny(v)
		if got == nil {
			rv.SetZero()
			return nil
		}
		rv.Set(reflect.ValueOf(got))
		return nil
	default:
		return fmt.Errorf("%w: type %s", ErrUnmarshal, rv.Type())
	}
}

func unmarshalSlice(v Value, rv reflect.Value, owned bool) error {
	switch rv.Type().Elem().Kind() {
	case reflect.Uint8:
		if v.Kind() != KindBytes {
			return mismatch(v, rv.Type())
		}
		rv.SetBytes(ownBytes(v.AsBytes(), owned))
		return nil
	case reflect.Float64:
		// The packed Floats fast path; a plain List of floats also works,
		// so hand-built values remain readable.
		if v.Kind() == KindBytes {
			fs := v.AsFloats()
			if fs == nil && v.Len() != 0 {
				return fmt.Errorf("%w: blob of %d bytes is not a packed []float64", ErrUnmarshal, v.Len())
			}
			rv.Set(reflect.ValueOf(fs).Convert(rv.Type()))
			return nil
		}
	}
	if v.Kind() != KindList {
		return mismatch(v, rv.Type())
	}
	out := reflect.MakeSlice(rv.Type(), v.Len(), v.Len())
	for i := 0; i < v.Len(); i++ {
		if err := unmarshalValue(v.At(i), out.Index(i), owned); err != nil {
			return err
		}
	}
	rv.Set(out)
	return nil
}

// toAny maps a Value to its canonical dynamic Go form.
func toAny(v Value) any {
	switch v.Kind() {
	case KindBool:
		return v.AsBool()
	case KindInt:
		return v.AsInt()
	case KindFloat:
		return v.AsFloat()
	case KindString:
		return v.AsString()
	case KindBytes:
		cp := make([]byte, v.Len())
		copy(cp, v.AsBytes())
		return cp
	case KindList:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = toAny(v.At(i))
		}
		return out
	case KindDict:
		out := make(map[string]any, v.Len())
		for _, k := range v.Keys() {
			out[k] = toAny(v.Get(k))
		}
		return out
	case KindRef:
		target, _ := v.AsRef()
		return target
	case KindFuture:
		fr, _ := v.AsFutureRef()
		return fr
	default:
		return nil
	}
}

// ownBytes is the []byte an unmarshal stores: b itself (capacity-capped)
// when the caller owns it, a copy otherwise. Never nil, as a copy of an
// empty blob never was.
func ownBytes(b []byte, owned bool) []byte {
	if owned {
		if b == nil {
			return []byte{}
		}
		return b[:len(b):len(b)]
	}
	return append(make([]byte, 0, len(b)), b...)
}

func mismatch(v Value, t reflect.Type) error { return mismatchKind(v.Kind(), t) }

func mismatchKind(k Kind, t reflect.Type) error {
	return fmt.Errorf("%w: %s value into %s", ErrUnmarshal, k, t)
}
