package active

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/localgc"
	"repro/internal/wire"
)

// ErrHandleReleased is returned by calls through a handle whose reference
// has been dropped: its stub is gone (or going), so the middleware must
// not fabricate a fresh edge to the target. Check with errors.Is.
var ErrHandleReleased = errors.New("active: handle released")

// Handle lets non-active code (a main function, a test, a benchmark)
// reference and call an activity. A handle is one rooted stub owned by its
// node's root referencer (§4.1), the permanently busy stand-in for the
// node's non-active code, which heartbeats the target like any referencer
// would. Release drops the stub; the root's edge goes with its last stub
// for the target, which the DGC then reclaims once otherwise garbage.
// Every handle on a node speaks as that one root: two handles to one
// target share one edge and one beat; requests carry the root as Sender,
// so per-sender FIFO holds across all of the node's handles; and the root
// owns their futures, so a reply that lands after Release still resolves,
// its references pinned until Wait or Discard.
type Handle struct {
	node     *Node
	target   ids.ActivityID
	stubRoot localgc.RootID
	released atomic.Bool
}

// NewActive creates an activity running b on this node and returns a
// handle referencing it. Options configure the activity (e.g. WithPolicy
// for a non-FIFO service discipline).
func (n *Node) NewActive(name string, b Behavior, opts ...SpawnOption) *Handle {
	return n.handle(n.newActivity(name, b, opts...).id)
}

// HandleFor wraps an existing reference value (e.g. from Env.Lookup) in a
// handle anchored on this node.
func (n *Node) HandleFor(ref wire.Value) (*Handle, error) {
	target, ok := ref.AsRef()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotARef, ref)
	}
	return n.handle(target), nil
}

// handle pins the root's stub for target, which carries the root's edge.
func (n *Node) handle(target ids.ActivityID) *Handle {
	_, stub := n.heap.NewStubRooted(n.root.id, target)
	return &Handle{node: n, target: target, stubRoot: stub}
}

// Ref returns the reference value this handle holds. Embedding it in call
// arguments shares the reference with the callee.
func (h *Handle) Ref() wire.Value { return wire.Ref(h.target) }

// Node returns the node anchoring the handle.
func (h *Handle) Node() *Node { return h.node }

// Call performs an asynchronous method call on the target and returns a
// future.
func (h *Handle) Call(method string, args wire.Value) (*Future, error) {
	return h.call(method, encodeArgs(method, args))
}

// call is Call with the args encoded behind the room of the request
// header (see Node.sendRequest).
func (h *Handle) call(method string, enc []byte) (*Future, error) {
	if h.released.Load() {
		return nil, fmt.Errorf("call %q: %w", method, ErrHandleReleased)
	}
	return h.node.root.call(h.target, method, enc)
}

// Send performs a one-way asynchronous call on the target.
func (h *Handle) Send(method string, args wire.Value) error {
	return h.send(method, encodeArgs(method, args))
}

// send is Send with the args encoded as for call.
func (h *Handle) send(method string, enc []byte) error {
	if h.released.Load() {
		return fmt.Errorf("send %q: %w", method, ErrHandleReleased)
	}
	return h.node.root.send(h.target, method, enc)
}

// CallSync is Call followed by Wait.
func (h *Handle) CallSync(method string, args wire.Value, timeout time.Duration) (wire.Value, error) {
	fut, err := h.Call(method, args)
	if err != nil {
		return wire.Null(), err
	}
	return fut.Wait(timeout)
}

// Future lifts a first-class future value (received in a reply) into the
// waitable Future adopted on this handle's node — the non-active-code
// analogue of Context.Future.
func (h *Handle) Future(v wire.Value) (*Future, error) {
	return h.node.futureFor(v)
}

// Release drops the handle's stub. When it was the root's last stub for
// the target, the next sweep removes the root's edge and the target
// becomes collectable once otherwise garbage. Futures of calls made
// through the handle are unaffected. Release is an idempotent no-op on a
// released handle.
func (h *Handle) Release() {
	if h.released.Swap(true) {
		return
	}
	h.node.heap.RemoveRoot(h.stubRoot)
}

// Terminate explicitly destroys the target activity (the paper's NAS
// baseline uses explicit termination). The handle is released as a side
// effect; on an already-released handle Terminate is a no-op, since the
// handle no longer speaks for the target.
func (h *Handle) Terminate() {
	if h.released.Load() {
		return
	}
	if ao, alive := h.node.env.activity(h.target); alive {
		ao.node.destroy(ao, core.ReasonNone)
	}
	h.Release()
}
