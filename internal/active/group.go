package active

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Group errors.
var (
	// ErrGroupArity indicates Scatter received a request count different
	// from the group size.
	ErrGroupArity = errors.New("active: scatter arity mismatch")
	// ErrEmptyGroup indicates a group operation on zero members.
	ErrEmptyGroup = errors.New("active: empty group")
)

// Group is a typed one-to-many handle: the ProActive group-communication
// analogue. It fans one method out over N member activities — Broadcast
// ships the same request to all, Scatter one request per member — and
// returns a FutureGroup collecting the replies. Each member is pinned by
// its own Handle (a stub of its node's root); Release drops all of them
// at once, handing the whole fan-out reference graph to the DGC.
type Group[Req, Resp any] struct {
	method   string
	members  []*Handle
	req      wire.Codec[Req]
	released atomic.Bool
}

// NewGroup types the given handles' method into a group. The group takes
// ownership of the handles: Group.Release releases them all.
func NewGroup[Req, Resp any](method string, members ...*Handle) *Group[Req, Resp] {
	return &Group[Req, Resp]{method: method, members: members, req: wire.CodecFor[Req]()}
}

// Size returns the number of members.
func (g *Group[Req, Resp]) Size() int { return len(g.members) }

// Member returns the i-th member's handle.
func (g *Group[Req, Resp]) Member(i int) *Handle { return g.members[i] }

// Stub returns a single-member typed stub for the i-th member.
func (g *Group[Req, Resp]) Stub(i int) Stub[Req, Resp] {
	return NewStub[Req, Resp](g.members[i], g.method)
}

// Broadcast sends the same request to every member and returns the future
// group of their replies (in member order). The request is marshaled
// once for the whole group; members sharing a destination node travel in
// one fan-out envelope that carries the encoded request once.
func (g *Group[Req, Resp]) Broadcast(req Req, opts ...CallOption) (*FutureGroup[Resp], error) {
	if len(g.members) == 0 {
		return nil, ErrEmptyGroup
	}
	args, err := g.encode(req)
	if err != nil {
		return nil, err
	}
	return g.fanOut(func(int) []byte { return args }, true, opts)
}

// Scatter sends reqs[i] to member i; len(reqs) must equal Size.
func (g *Group[Req, Resp]) Scatter(reqs []Req, opts ...CallOption) (*FutureGroup[Resp], error) {
	if len(g.members) == 0 {
		return nil, ErrEmptyGroup
	}
	if len(reqs) != len(g.members) {
		return nil, fmt.Errorf("%w: %d requests for %d members", ErrGroupArity, len(reqs), len(g.members))
	}
	argsPer := make([][]byte, len(reqs))
	for i, req := range reqs {
		args, err := g.encode(req)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		argsPer[i] = args
	}
	return g.fanOut(func(i int) []byte { return argsPer[i] }, false, opts)
}

// Send broadcasts a one-way request to every member (the fan-out path
// with no reply expected, so co-destination members share an envelope the
// same way).
func (g *Group[Req, Resp]) Send(req Req) error {
	if len(g.members) == 0 {
		return ErrEmptyGroup
	}
	args, err := g.encode(req)
	if err != nil {
		return err
	}
	_, err = g.fanOut(func(int) []byte { return args }, true, []CallOption{WithNoReply()})
	return err
}

// encode encodes one request's args behind the room of the group
// method's request header (sendRequest).
func (g *Group[Req, Resp]) encode(req Req) ([]byte, error) {
	return g.req.EncodeAfter(requestRoom(g.method), req)
}

// fanOut submits one request per member and collects the typed futures.
// argsFor returns a member's encoded args behind the room of the
// method's header (encode). sharedArgs marks a broadcast: every member
// receives the same value, encoded once per envelope, and a member sent
// from this node gets its own copy. Members hosted on their handle's own
// node are delivered there (deliverEncoded); every other member rides
// its anchor node's relay tree (WIRE.md §10). A group over at most
// fanOutDegree remote nodes is a depth-1 tree — one envelope per
// destination node, replies straight back per member — and a wider one
// costs the root O(fanOutDegree) envelopes and aggregated replies,
// however large the group. An envelope the transport refuses fails the
// whole call with the transport's error, as a single call's send does.
func (g *Group[Req, Resp]) fanOut(argsFor func(int) []byte, sharedArgs bool, opts []CallOption) (*FutureGroup[Resp], error) {
	o := applyOptions(opts)
	futs := make([]*TypedFuture[Resp], len(g.members))
	abort := func(i int, err error) (*FutureGroup[Resp], error) {
		// Unwind every member prepared so far: drop their value pins and
		// remove their futures from the table — a request that was never
		// sent can never be answered, and a dropped entry means a straggler
		// update from an already-sent member is discarded instead of
		// leaking the entry.
		for _, tf := range futs {
			if tf == nil {
				continue
			}
			if tf.fut != nil {
				tf.fut.node.futures.remove(tf.fut.id)
			}
			tf.Discard()
		}
		return nil, fmt.Errorf("member %d: %w", i, err)
	}
	var trees map[*Node]*groupTree
	for i, h := range g.members {
		if h.released.Load() {
			return abort(i, fmt.Errorf("call %q: %w", g.method, ErrHandleReleased))
		}
		node := h.node
		// A cached migration skips the forwarder, as on sendRequest's path.
		target := node.resolveRebind(h.target)
		req := request{Target: target, Sender: node.root.id, Method: g.method}
		if o.noReply {
			futs[i] = &TypedFuture[Resp]{}
		} else {
			fut := node.futures.create(node, node.root.id)
			req.Future = fut.ID()
			futs[i] = &TypedFuture[Resp]{fut: fut, timeout: o.timeout}
		}
		switch {
		case target.Node == node.id, node.env.isDeadNode(target.Node):
			// sendRequest delivers a local member and owns the dead-home
			// fallbacks: location knowledge, then the directory shard,
			// then the ErrNodeDead fail-fast.
			enc := argsFor(i)
			if sharedArgs {
				enc = bytes.Clone(enc)
			}
			if err := node.sendRequest(req, enc); err != nil {
				return abort(i, err)
			}
		default:
			t := trees[node]
			if t == nil {
				if trees == nil {
					trees = make(map[*Node]*groupTree)
				}
				t = &groupTree{
					node:    node,
					dstIdx:  make(map[ids.NodeID]int),
					members: make([]groupTreeMember, 0, len(g.members)-i),
				}
				trees[node] = t
			}
			t.add(i, req, argsFor(i)[requestRoom(g.method):], sharedArgs, futs[i].fut)
		}
	}
	for _, t := range trees {
		if i, err := t.send(g.method, sharedArgs, !o.noReply, argsFor); err != nil {
			return abort(i, err)
		}
	}
	return &FutureGroup[Resp]{futs: futs}, nil
}

// groupTree accumulates one anchor node's tree-scatter during fanOut:
// the per-destination bundles plus the member bookkeeping the root
// performs once the envelopes are on the wire.
type groupTree struct {
	node    *Node
	dstIdx  map[ids.NodeID]int
	bundles []fanBundle
	shared  []byte // the encoded broadcast args
	members []groupTreeMember
}

type groupTreeMember struct {
	i   int     // the member's index in the group
	fut *Future // nil for one-way members
	dst ids.NodeID
}

// add bundles one member; args are its encoded args (no header room).
func (t *groupTree) add(i int, req request, args []byte, sharedArgs bool, fut *Future) {
	dst := req.Target.Node
	bi, ok := t.dstIdx[dst]
	if !ok {
		bi = len(t.bundles)
		t.dstIdx[dst] = bi
		t.bundles = append(t.bundles, fanBundle{Dst: dst})
	}
	en := fanEntry{Target: req.Target, Sender: req.Sender, Future: req.Future}
	if sharedArgs {
		t.shared = args
	} else {
		en.Args = args
	}
	t.bundles[bi].Entries = append(t.bundles[bi].Entries, en)
	t.members = append(t.members, groupTreeMember{i: i, fut: fut, dst: dst})
}

// send ships the accumulated bundles as at most fanOutDegree subtree
// envelopes (the first bundle's destination doubles as the subtree's
// relay), stopping at the first envelope the transport refuses. Every
// member whose envelope left registers its first-hop relay as the
// awaited node — a confirmed death of the relay fails it instead of
// hanging the waiter — and its destination node as holder of any futures
// forwarded in the arguments. On a refusal send returns the transport's
// error and the index of the first member left unsent.
func (t *groupTree) send(method string, sharedArgs, urgent bool, argsFor func(int) []byte) (int, error) {
	n := t.node
	relayOf := make(map[ids.NodeID]ids.NodeID, len(t.bundles))
	var sendErr error
	for _, group := range subtrees(t.bundles) {
		env := fanOutEnv{
			Root:   n.id,
			Method: method,
			Shared: sharedArgs,
			Args:   t.shared,
			Bundle: group,
		}
		if sendErr = n.transportSend(group[0].Dst, transport.ClassApp, encodeFanOut(env), urgent); sendErr != nil {
			break
		}
		for _, b := range group {
			relayOf[b.Dst] = group[0].Dst
		}
	}
	unsent := -1
	for _, m := range t.members {
		relay, sent := relayOf[m.dst]
		if !sent {
			if unsent < 0 {
				unsent = m.i
			}
			continue
		}
		if m.fut != nil && n.env.cluster != nil {
			m.fut.awaitNode.Store(uint32(relay))
		}
		n.noteFutureValuesSent(m.dst, argsFor(m.i)[requestRoom(method):])
	}
	return unsent, sendErr
}

// Release releases every member handle (idempotent). The members become
// ordinary DGC candidates: once nothing else references them, the whole
// group is reclaimed — cyclically if the members ended up referencing
// each other.
func (g *Group[Req, Resp]) Release() {
	if g.released.Swap(true) {
		return
	}
	for _, h := range g.members {
		h.Release()
	}
}

// FutureGroup collects the typed futures of one group fan-out, in member
// order.
type FutureGroup[Resp any] struct {
	futs []*TypedFuture[Resp]
}

// Len returns the number of member futures.
func (fg *FutureGroup[Resp]) Len() int { return len(fg.futs) }

// At returns the i-th member's future.
func (fg *FutureGroup[Resp]) At(i int) *TypedFuture[Resp] { return fg.futs[i] }

// WaitAll waits for every member and returns the replies in member order.
// timeout is the overall budget (0 = wait forever); on the first failure
// the remaining futures are discarded and the error returned.
func (fg *FutureGroup[Resp]) WaitAll(timeout time.Duration) ([]Resp, error) {
	out := make([]Resp, len(fg.futs))
	start := time.Now()
	for i, f := range fg.futs {
		budget := time.Duration(0)
		if timeout > 0 {
			budget = timeout - time.Since(start)
			if budget <= 0 {
				fg.discardFrom(i)
				return nil, fmt.Errorf("%w: group wait after %v (%d/%d resolved)",
					ErrFutureTimeout, timeout, i, len(fg.futs))
			}
		}
		resp, err := f.Wait(budget)
		if err != nil {
			fg.discardFrom(i + 1)
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		out[i] = resp
	}
	return out, nil
}

// WaitAny waits until any member resolves and returns its index and
// reply. The other futures stay pending and consumable (call WaitAll, At
// or Discard on them later). timeout 0 waits forever.
func (fg *FutureGroup[Resp]) WaitAny(timeout time.Duration) (int, Resp, error) {
	var zero Resp
	if len(fg.futs) == 0 {
		return -1, zero, ErrEmptyGroup
	}
	// Fast path: someone already resolved (or is one-way).
	for i, f := range fg.futs {
		select {
		case <-f.Done():
			resp, err := f.Wait(0)
			return i, resp, err
		default:
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	ready := make(chan int, len(fg.futs))
	for i, f := range fg.futs {
		go func(i int, done <-chan struct{}) {
			select {
			case <-done:
				ready <- i
			case <-stop:
			}
		}(i, f.Done())
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timeoutCh = time.After(timeout)
	}
	select {
	case i := <-ready:
		resp, err := fg.futs[i].Wait(0)
		return i, resp, err
	case <-timeoutCh:
		return -1, zero, fmt.Errorf("%w: group wait-any after %v", ErrFutureTimeout, timeout)
	}
}

// Discard releases every member future's heap pin without reading.
func (fg *FutureGroup[Resp]) Discard() { fg.discardFrom(0) }

func (fg *FutureGroup[Resp]) discardFrom(i int) {
	for _, f := range fg.futs[i:] {
		f.Discard()
	}
}
