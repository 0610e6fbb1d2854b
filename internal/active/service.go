package active

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// ErrUnknownMethod is returned (to the caller, through the future) when a
// Service is asked for a method it does not declare.
var ErrUnknownMethod = errors.New("active: unknown service method")

// ServiceMethod is one named, typed operation of a Service. Build them
// with Method; the zero value is invalid.
type ServiceMethod struct {
	name string
	// handler runs one call; owned says the arguments are the request's
	// own copy, which the decoded Req may share (WIRE.md §2). With reply
	// set it returns the encoded Resp behind updateRoom bytes of room.
	handler func(ctx *Context, args wire.Value, owned, reply bool) ([]byte, error)
}

// Name returns the method's wire name.
func (m ServiceMethod) Name() string { return m.name }

// Method declares a typed service operation: on every call, the wire
// arguments are unmarshaled into Req, fn runs, and its Resp is encoded
// back. Req and Resp follow the codec mapping of wire.Marshal — plain
// structs with optional `wire` tags; embedded wire.Value or
// ids.ActivityID fields carry remote references, keeping the DGC's
// reference graph exact even through the typed façade.
func Method[Req, Resp any](name string, fn func(ctx *Context, req Req) (Resp, error)) ServiceMethod {
	if name == "" {
		panic("active: Method with empty name")
	}
	// Compile the cached marshal/unmarshal plans for the method's types
	// once, at registration, so every call walks the flat fast path.
	reqCodec, respCodec := wire.CodecFor[Req](), wire.CodecFor[Resp]()
	return ServiceMethod{
		name: name,
		handler: func(ctx *Context, args wire.Value, owned, reply bool) ([]byte, error) {
			var req Req
			var err error
			if owned {
				err = reqCodec.UnmarshalOwned(args, &req)
			} else {
				err = reqCodec.Unmarshal(args, &req)
			}
			if err != nil {
				return nil, fmt.Errorf("method %q: bad arguments: %w", name, err)
			}
			resp, err := fn(ctx, req)
			if err != nil || !reply {
				return nil, err
			}
			// Encoded straight into the future-update envelope the reply
			// travels in: it keeps no reference to resp's bytes.
			return respCodec.EncodeAfter(updateRoom, resp)
		},
	}
}

// Service is a typed method registry implementing Behavior: the v2
// replacement for hand-rolled switch-on-method-name dispatch. It is the
// middleware analogue of a declared service interface — the set of
// operations is enumerable (Methods), not an opaque string space.
type Service struct {
	methods map[string]ServiceMethod
}

// NewService builds a service from typed method descriptors. Duplicate
// method names panic: a service's interface must be unambiguous at
// construction time.
func NewService(methods ...ServiceMethod) *Service {
	s := &Service{methods: make(map[string]ServiceMethod, len(methods))}
	for _, m := range methods {
		if m.handler == nil {
			panic("active: NewService with zero ServiceMethod")
		}
		if _, dup := s.methods[m.name]; dup {
			panic(fmt.Sprintf("active: duplicate service method %q", m.name))
		}
		s.methods[m.name] = m
	}
	return s
}

// Methods returns the sorted names of the declared operations.
func (s *Service) Methods() []string {
	out := make([]string, 0, len(s.methods))
	for name := range s.methods {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Serve implements Behavior by dispatching to the declared method.
func (s *Service) Serve(ctx *Context, method string, args wire.Value) (wire.Value, error) {
	enc, err := s.serve(ctx, method, args, false, true)
	if err != nil {
		return wire.Null(), err
	}
	v, err := wire.DecodePayload(enc[updateRoom:], true)
	return wire.Expand(v), err
}

// serve is Serve for the runtime's own dispatch, which knows whether the
// arguments are the request's own copy and whether a reply is awaited;
// the result comes encoded behind updateRoom bytes of room (sealUpdate).
func (s *Service) serve(ctx *Context, method string, args wire.Value, owned, reply bool) ([]byte, error) {
	m, ok := s.methods[method]
	if !ok {
		return nil, fmt.Errorf("%w: %q (service declares %v)", ErrUnknownMethod, method, s.Methods())
	}
	return m.handler(ctx, args, owned, reply)
}
