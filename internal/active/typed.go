package active

import (
	"time"

	"repro/internal/wire"
)

// callOptions collects the per-call knobs of the typed API.
type callOptions struct {
	timeout time.Duration
	noReply bool
}

// CallOption is a per-call option for the typed calling API.
type CallOption func(*callOptions)

// WithTimeout sets the call's default wait budget: Wait(0) and resolution
// through FutureGroup then give up after d instead of blocking forever.
func WithTimeout(d time.Duration) CallOption {
	return func(o *callOptions) { o.timeout = d }
}

// WithNoReply turns the call into a one-way send: no future update flows
// back (§4.1 — a reply that nobody awaits would only cost traffic). The
// returned future is pre-resolved with the zero Resp.
func WithNoReply() CallOption {
	return func(o *callOptions) { o.noReply = true }
}

func applyOptions(opts []CallOption) callOptions {
	var o callOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// closedChan is the Done channel of pre-resolved futures.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// TypedFuture wraps a Future and unmarshals its value into Resp on
// consumption. A nil-backed TypedFuture (from a WithNoReply call) is
// already resolved with the zero Resp.
type TypedFuture[Resp any] struct {
	fut *Future
	// timeout is the default Wait budget installed by WithTimeout.
	timeout time.Duration
	// codec is the stub's Resp codec; zero (looked up per Wait) for
	// futures typed after the fact.
	codec wire.Codec[Resp]
}

// Typed wraps an untyped future. The wrapper does not take ownership:
// consuming through either view releases the value's heap pin.
func Typed[Resp any](fut *Future) *TypedFuture[Resp] {
	return &TypedFuture[Resp]{fut: fut}
}

// Raw returns the underlying untyped future (nil for one-way calls).
func (f *TypedFuture[Resp]) Raw() *Future { return f.fut }

// WireFutureRef implements wire.FutureSource: a TypedFuture marshals into
// call arguments and results as a first-class wire future value, so a
// typed behavior can return (or forward) a result it does not have yet. A
// nil-backed future (WithNoReply) has no wire identity and marshals as
// Null.
func (f *TypedFuture[Resp]) WireFutureRef() (wire.FutureRef, bool) {
	if f == nil || f.fut == nil {
		return wire.FutureRef{}, false
	}
	return f.fut.WireFutureRef()
}

// FutureFor lifts a first-class future value (a wire.FutureRef carried in
// arguments, state or a reply) into a typed future on the given context's
// node: the typed form of Context.Future, for wait-by-necessity at the
// activity that finally touches the value.
func FutureFor[Resp any](ctx *Context, v wire.Value) (*TypedFuture[Resp], error) {
	fut, err := ctx.Future(v)
	if err != nil {
		return nil, err
	}
	return Typed[Resp](fut), nil
}

// Done returns a channel closed when the future is resolved.
func (f *TypedFuture[Resp]) Done() <-chan struct{} {
	if f.fut == nil {
		return closedChan
	}
	return f.fut.Done()
}

// Wait blocks until the future resolves, unmarshals the result into Resp
// and returns it. A zero timeout falls back to the WithTimeout option of
// the call, and to waiting forever if none was given.
func (f *TypedFuture[Resp]) Wait(timeout time.Duration) (Resp, error) {
	var resp Resp
	if f.fut == nil {
		return resp, nil
	}
	if timeout <= 0 {
		timeout = f.timeout
	}
	v, err := f.fut.await(timeout, false)
	if err != nil {
		return resp, err
	}
	// The value may have other consumers: Unmarshal copies its bytes.
	if err := f.codec.Unmarshal(v, &resp); err != nil {
		return resp, err
	}
	return resp, nil
}

// TryGet returns the unmarshaled value if the future is already resolved.
func (f *TypedFuture[Resp]) TryGet() (Resp, error, bool) {
	var resp Resp
	if f.fut == nil {
		return resp, nil, true
	}
	v, err, ok := f.fut.tryGet(false)
	if !ok || err != nil {
		return resp, err, ok
	}
	return resp, f.codec.Unmarshal(v, &resp), true
}

// Discard releases the future's heap pin without reading the value.
func (f *TypedFuture[Resp]) Discard() {
	if f.fut != nil {
		f.fut.Discard()
	}
}

// Stub is a typed, single-method view of an activity handle: the v2
// calling surface replacing hand-rolled wire.Value plumbing. A service
// with several operations gets one stub per operation, all sharing the
// same underlying Handle (and thus one DGC root).
type Stub[Req, Resp any] struct {
	h      *Handle
	method string
	req    wire.Codec[Req]
	resp   wire.Codec[Resp]
}

// NewStub types the given handle's method.
func NewStub[Req, Resp any](h *Handle, method string) Stub[Req, Resp] {
	// Stub construction is the caller-side registration point for the
	// cached-plan codec: compile the Req/Resp plans once, and keep them,
	// so every call through the stub marshals along the flat fast path.
	return Stub[Req, Resp]{h: h, method: method, req: wire.CodecFor[Req](), resp: wire.CodecFor[Resp]()}
}

// Handle returns the underlying untyped handle.
func (s Stub[Req, Resp]) Handle() *Handle { return s.h }

// Method returns the wire method name the stub calls.
func (s Stub[Req, Resp]) Method() string { return s.method }

// Call encodes req, performs the asynchronous call and returns a typed
// future for the result. The request is encoded before Call returns, so
// the caller may reuse req's byte slices at once (WIRE.md §2, "Payload
// ownership").
func (s Stub[Req, Resp]) Call(req Req, opts ...CallOption) (*TypedFuture[Resp], error) {
	o := applyOptions(opts)
	enc, err := s.req.EncodeAfter(requestRoom(s.method), req)
	if err != nil {
		return nil, err
	}
	if o.noReply {
		if err := s.h.send(s.method, enc); err != nil {
			return nil, err
		}
		return &TypedFuture[Resp]{}, nil
	}
	fut, err := s.h.call(s.method, enc)
	if err != nil {
		return nil, err
	}
	return &TypedFuture[Resp]{fut: fut, timeout: o.timeout, codec: s.resp}, nil
}

// CallSync is Call followed by Wait.
func (s Stub[Req, Resp]) CallSync(req Req, timeout time.Duration) (Resp, error) {
	fut, err := s.Call(req)
	if err != nil {
		var zero Resp
		return zero, err
	}
	return fut.Wait(timeout)
}

// Send performs a one-way, fire-and-forget call; req is encoded before
// Send returns, as in Call.
func (s Stub[Req, Resp]) Send(req Req) error {
	enc, err := s.req.EncodeAfter(requestRoom(s.method), req)
	if err != nil {
		return err
	}
	return s.h.send(s.method, enc)
}

// CallTyped is the in-behavior analogue of Stub.Call: an activity calling
// another activity through a reference value it holds, with typed
// marshaling at both ends. req's []byte fields are shared until the
// request is encoded, before CallTyped returns (WIRE.md §2).
func CallTyped[Resp any](ctx *Context, target wire.Value, method string, req any, opts ...CallOption) (*TypedFuture[Resp], error) {
	o := applyOptions(opts)
	args, err := wire.MarshalBorrow(req)
	if err != nil {
		return nil, err
	}
	if o.noReply {
		if err := ctx.Send(target, method, args); err != nil {
			return nil, err
		}
		return &TypedFuture[Resp]{}, nil
	}
	fut, err := ctx.Call(target, method, args)
	if err != nil {
		return nil, err
	}
	return &TypedFuture[Resp]{fut: fut, timeout: o.timeout}, nil
}

// SendTyped is the in-behavior analogue of Stub.Send.
func SendTyped(ctx *Context, target wire.Value, method string, req any) error {
	args, err := wire.MarshalBorrow(req)
	if err != nil {
		return err
	}
	return ctx.Send(target, method, args)
}
