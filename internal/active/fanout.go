package active

// Tree-structured group fan-out (WIRE.md §10), the one path every remote
// group call takes. A flat fan-out would cost the root one envelope (and
// one reply) per member; past ~10^3 members the root's send loop and
// inbound reply burst dominate. The tree instead ships per-destination-
// node request bundles down a relay tree of degree fanOutDegree: each
// relay delivers its own bundle locally, splits the remaining bundles
// among at most fanOutDegree child relays, and aggregates replies
// hop-by-hop — the root receives O(degree) aggregate envelopes instead of
// O(members) updates. A group over at most fanOutDegree remote nodes is a
// depth-1 tree: no node forwards, nothing aggregates, and every member
// replies straight to the root, exactly as a plain call would.
//
// Reliability model: relays are soft state. A reply that finds its
// relay record gone (expired, flushed by a beat, or the relay restarted
// the record after a crash of its parent) falls back to a direct
// future-update send to the root, so aggregation can only delay a
// reply, never lose one. A relay node dying with buffered replies loses
// exactly the replies a flat fan-out would have lost had the members
// been hosted there; the root fails fast on first-hop relay death (the
// await-node machinery) and callers time out on deeper losses.

import (
	"encoding/binary"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fanBundle is the per-destination-node slice of one tree fan-out: the
// requests for every group member hosted on Dst.
type fanBundle struct {
	Dst     ids.NodeID
	Entries []fanEntry
}

// fanEntry is one member's request inside a bundle. Args is unset for
// shared-args (broadcast) envelopes — every entry uses the envelope's
// shared value.
//
// Args stay encoded (WIRE.md §1) from the root to the member's node: a
// relay copies them into its child envelopes as they are, and the member
// receives them exactly as a single request's args — ref-free args are
// never decoded into a value tree (WIRE.md §2, "Payload ownership").
type fanEntry struct {
	Target ids.ActivityID
	Sender ids.ActivityID
	Future FutureID
	Args   []byte
}

// fanOutEnv is the decoded envFanOut envelope. A decoded envelope's args
// alias the payload it was decoded from.
type fanOutEnv struct {
	Root   ids.NodeID // the caller's node: fallback reply destination
	AggKey uint64     // relay-record key on the sender (0 = sender is the root)
	Method string
	Shared bool
	Args   []byte // encoded shared args; only meaningful when Shared
	Bundle []fanBundle
}

// Decode caps, far above anything the group layer produces.
const (
	maxFanBundles = 1 << 12
	maxFanEntries = 1 << 17
)

// fanOutDegree is the relay tree's branching factor: a node sends at most
// this many subtree envelopes.
const fanOutDegree = 4

// subtrees splits bundles into at most fanOutDegree contiguous subtrees
// of near-equal size; each subtree's first destination doubles as its
// relay. Up to fanOutDegree bundles, every bundle is its own subtree.
func subtrees(bundles []fanBundle) [][]fanBundle {
	per := (len(bundles) + fanOutDegree - 1) / fanOutDegree
	out := make([][]fanBundle, 0, fanOutDegree)
	for len(bundles) > 0 {
		k := min(per, len(bundles))
		out = append(out, bundles[:k:k])
		bundles = bundles[k:]
	}
	return out
}

// encodeFanOut packs: tag | root(4) | aggKey(8) | method | shared(1) |
// [shared args] | uvarint bundle count | bundles. Each bundle is
// dst(4) | uvarint entry count | entries; each entry target(8) |
// sender(8) | future(8) | [args] (args present iff !shared).
func encodeFanOut(e fanOutEnv) []byte {
	size := 1 + 4 + 8 + 2*binary.MaxVarintLen64 + len(e.Method) + 1 + len(e.Args)
	for _, b := range e.Bundle {
		size += 4 + binary.MaxVarintLen64 + 24*len(b.Entries)
		for _, en := range b.Entries {
			size += len(en.Args)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, envFanOut)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Root))
	buf = binary.LittleEndian.AppendUint64(buf, e.AggKey)
	buf = wire.AppendString(buf, e.Method)
	if e.Shared {
		buf = append(buf, 1)
		buf = append(buf, e.Args...)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Bundle)))
	for _, b := range e.Bundle {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Dst))
		buf = binary.AppendUvarint(buf, uint64(len(b.Entries)))
		for _, en := range b.Entries {
			buf = wire.AppendID(buf, en.Target)
			buf = wire.AppendID(buf, en.Sender)
			buf = wire.AppendFuture(buf, en.Future)
			if !e.Shared {
				buf = append(buf, en.Args...)
			}
		}
	}
	return buf
}

func decodeFanOut(buf []byte) (fanOutEnv, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(envFanOut)
	e := fanOutEnv{Root: ids.NodeID(r.U32()), AggKey: r.U64(), Method: r.String(), Shared: r.Byte() != 0}
	if e.Shared {
		e.Args = r.RawValue()
	}
	total := 0 // entries across all bundles, capped at maxFanEntries
	nb := r.Count(maxFanBundles)
	e.Bundle = make([]fanBundle, 0, nb)
	for ; nb > 0 && r.Err() == nil; nb-- {
		b := fanBundle{Dst: ids.NodeID(r.U32())}
		b.Entries = make([]fanEntry, r.Count(maxFanEntries-total))
		total += len(b.Entries)
		for j := range b.Entries {
			en := &b.Entries[j]
			en.Target, en.Sender, en.Future = r.ID(), r.ID(), r.Future()
			if !e.Shared {
				en.Args = r.RawValue()
			}
		}
		e.Bundle = append(e.Bundle, b)
	}
	return e, r.Done()
}

// encodeFanAgg packs aggregated replies one hop up the tree: tag |
// root(4) | parentKey(8) | uvarint count | count × length-prefixed
// future-update envelopes.
func encodeFanAgg(root ids.NodeID, parentKey uint64, updates [][]byte) []byte {
	size := 1 + 4 + 8 + binary.MaxVarintLen32
	for _, u := range updates {
		size += binary.MaxVarintLen32 + len(u)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, envFanAgg)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(root))
	buf = binary.LittleEndian.AppendUint64(buf, parentKey)
	buf = binary.AppendUvarint(buf, uint64(len(updates)))
	for _, u := range updates {
		buf = wire.AppendBytes(buf, u)
	}
	return buf
}

func decodeFanAgg(buf []byte) (root ids.NodeID, parentKey uint64, updates [][]byte, err error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(envFanAgg)
	root, parentKey = ids.NodeID(r.U32()), r.U64()
	updates = make([][]byte, r.Count(maxFanEntries))
	for i := range updates {
		updates[i] = r.Bytes()
	}
	return root, parentKey, updates, r.Done()
}

// ---------------------------------------------------------------------------
// Relay records.

// relayRecord tracks one subtree of a tree fan-out passing through this
// node: where aggregated replies go (parent node + the record key over
// there), which future IDs the subtree still owes, and the replies
// buffered so far.
type relayRecord struct {
	parent    ids.NodeID
	parentKey uint64
	root      ids.NodeID
	born      time.Time
	pending   map[FutureID]struct{}
	buf       [][]byte // encoded futureUpdate envelopes
}

// newRelay registers a record and returns its key (keys start at 1;
// Via/AggKey 0 always means "no record").
func (n *Node) newRelay(parent ids.NodeID, parentKey uint64, root ids.NodeID, pending map[FutureID]struct{}) uint64 {
	n.relayMu.Lock()
	defer n.relayMu.Unlock()
	if n.relays == nil {
		n.relays = make(map[uint64]*relayRecord)
	}
	n.relayNext++
	key := n.relayNext
	n.relays[key] = &relayRecord{
		parent:    parent,
		parentKey: parentKey,
		root:      root,
		born:      n.env.now(),
		pending:   pending,
	}
	return key
}

// aggEnqueue intercepts a locally produced reply for a tree fan-out
// delivery: buffered on the record and flushed upward once the subtree
// is complete. Reports false when the record is gone — the caller then
// replies directly (the fallback that makes aggregation lossless).
func (n *Node) aggEnqueue(key uint64, fid FutureID, payload []byte) bool {
	n.relayMu.Lock()
	rec, ok := n.relays[key]
	if !ok {
		n.relayMu.Unlock()
		return false
	}
	delete(rec.pending, fid)
	rec.buf = append(rec.buf, payload)
	done := len(rec.pending) == 0
	if done {
		delete(n.relays, key)
	}
	n.relayMu.Unlock()
	// The aggregate rides node-to-node, but holder registration for
	// futures inside the value is the producing node's job, exactly as on
	// the direct-reply path.
	n.noteFutureValuesSent(rec.root, updateValue(payload))
	if done {
		n.flushRelay(rec)
	}
	return true
}

// relayDetach removes one future from a record (its request left this
// node, so its reply will reach the root directly) and flushes the
// record if that completed it.
func (n *Node) relayDetach(key uint64, fid FutureID) {
	if key == 0 {
		return
	}
	n.relayMu.Lock()
	rec, ok := n.relays[key]
	if ok {
		delete(rec.pending, fid)
		if len(rec.pending) == 0 {
			delete(n.relays, key)
		} else {
			rec = nil
		}
	}
	n.relayMu.Unlock()
	if rec != nil && ok {
		n.flushRelay(rec)
	}
}

// flushRelay ships a record's buffered replies one hop toward the root.
// It must only be called on records already removed from n.relays (the
// caller owns them exclusively); for records still in the map, detach
// the buffer under relayMu and use shipAgg — concurrent serve and
// transport goroutines keep appending to a live record's buf.
func (n *Node) flushRelay(rec *relayRecord) {
	if len(rec.buf) == 0 {
		return
	}
	updates := rec.buf
	rec.buf = nil
	n.shipAgg(rec.root, rec.parent, rec.parentKey, updates)
}

// shipAgg sends detached updates one hop toward the root. If the parent
// cannot be reached the updates fall back to direct sends to the root
// (or local delivery when this node is the root).
func (n *Node) shipAgg(root, parent ids.NodeID, parentKey uint64, updates [][]byte) {
	if parent != n.id {
		if err := n.transportSend(parent, transport.ClassApp, encodeFanAgg(root, parentKey, updates), true); err == nil {
			return
		}
	}
	n.deliverUpdatesToRoot(root, updates)
}

// aggShipment is a live record's buffer detached under relayMu, with
// the routing fields copied so shipping needs no further access to the
// (possibly still concurrently mutated) record.
type aggShipment struct {
	root, parent ids.NodeID
	parentKey    uint64
	updates      [][]byte
}

// deliverUpdatesToRoot is the aggregation fallback: each embedded
// future update travels (or is delivered) as if it had never been
// aggregated.
func (n *Node) deliverUpdatesToRoot(root ids.NodeID, updates [][]byte) {
	for _, u := range updates {
		if root == n.id {
			n.deliverFutureUpdate(u, false)
			continue
		}
		_ = n.transportSend(root, transport.ClassFuture, u, true)
	}
}

// deliverFanAgg handles an inbound aggregate: at the root (parentKey 0)
// the embedded updates are final and delivered; at a relay they fold
// into the parent record, completing it or waiting for the rest of the
// subtree.
func (n *Node) deliverFanAgg(payload []byte) {
	// The transport owns payload only for the duration of this call
	// (tcpnet reuses its read buffer across frames), but the decoded
	// updates are retained past it: buffered on a relay record or handed
	// to an outbound batch lane. Slice up a private copy instead.
	payload = append([]byte(nil), payload...)
	root, parentKey, updates, err := decodeFanAgg(payload)
	if err != nil {
		return
	}
	if parentKey == 0 || root == n.id {
		n.deliverUpdatesToRoot(root, updates)
		return
	}
	n.relayMu.Lock()
	rec, ok := n.relays[parentKey]
	if ok {
		for _, u := range updates {
			if fu, _, derr := decodeFutureUpdateHeader(u); derr == nil {
				delete(rec.pending, fu.Future)
			}
			rec.buf = append(rec.buf, u)
		}
		if len(rec.pending) == 0 {
			delete(n.relays, parentKey)
		} else {
			rec = nil
		}
	}
	n.relayMu.Unlock()
	if !ok {
		// Record gone (expired or failed over): bypass the tree.
		n.deliverUpdatesToRoot(root, updates)
		return
	}
	if rec != nil {
		n.flushRelay(rec)
	}
}

// deliverFanOut handles an inbound tree scatter: deliver this node's
// bundle locally, split the remaining bundles among at most
// fanOutDegree child relays, and — where replies aggregate — leave a
// relay record awaiting the subtree's replies.
func (n *Node) deliverFanOut(from ids.NodeID, payload []byte) {
	e, err := decodeFanOut(payload)
	if err != nil {
		return
	}
	var rest []fanBundle
	for _, b := range e.Bundle {
		if b.Dst != n.id {
			rest = append(rest, b)
		}
	}
	var key uint64
	if len(rest) > 0 || e.AggKey != 0 {
		// Aggregate only inside a tree: this node relays for children, or
		// its sender is a relay. A bundle straight from the root with
		// nothing to forward replies per member, at once, so WaitAny on a
		// small group never waits for a co-located straggler or a beat.
		pending := make(map[FutureID]struct{})
		for _, b := range e.Bundle {
			for _, en := range b.Entries {
				if !en.Future.IsZero() {
					pending[en.Future] = struct{}{}
				}
			}
		}
		if len(pending) > 0 {
			key = n.newRelay(from, e.AggKey, e.Root, pending)
		}
	}
	n.forwardFanOut(e, rest, key)
	for _, b := range e.Bundle {
		if b.Dst != n.id {
			continue
		}
		for _, en := range b.Entries {
			args := e.Args
			if !e.Shared {
				args = en.Args
			}
			// Each member gets its own copy of the args, as a single
			// request's target does (deliverEncoded).
			n.deliverEncoded(request{
				Target: en.Target,
				Sender: en.Sender,
				Future: en.Future,
				Method: e.Method,
				Via:    key,
			}, args, false)
		}
	}
}

// forwardFanOut splits bundles among at most fanOutDegree child relays
// (see subtrees). A child that cannot be reached fails its subtree's
// futures immediately, as replies — into the record when there is one,
// directly to each future's home (the root) otherwise.
func (n *Node) forwardFanOut(e fanOutEnv, rest []fanBundle, key uint64) {
	for _, group := range subtrees(rest) {
		child := fanOutEnv{
			Root:   e.Root,
			AggKey: key,
			Method: e.Method,
			Shared: e.Shared,
			Args:   e.Args,
			Bundle: group,
		}
		err := n.transportSend(group[0].Dst, transport.ClassApp, encodeFanOut(child), true)
		if err == nil {
			continue
		}
		for _, b := range group {
			for _, en := range b.Entries {
				n.reply(request{Future: en.Future, Via: key}, wire.Null(), err)
			}
		}
	}
}

// replyTo routes a request's reply, a future-update envelope it
// consumes: into the relay record for tree fan-out deliveries (Via),
// directly to the future's home otherwise — including the fallback when
// the record has already expired.
func (n *Node) replyTo(req request, payload []byte) {
	if req.Via != 0 && n.aggEnqueue(req.Via, req.Future, payload) {
		return
	}
	n.sendFutureUpdate(req.Future, payload)
}

// reply answers req with v, or with err's failure when err is set; a
// one-way request gets nothing.
func (n *Node) reply(req request, v wire.Value, err error) {
	if req.Future.IsZero() {
		return
	}
	u := futureUpdate{Future: req.Future, Value: v}
	if err != nil {
		u = futureUpdate{Future: req.Future, Failed: true, Err: err.Error()}
	}
	n.replyTo(req, encodeFutureUpdate(u))
}

// expireRelays runs the relay upkeep each driver beat: buffered replies
// are flushed upward even while the subtree is incomplete (stragglers
// must not hold back the rest), and records older than TTA are dropped —
// their remaining replies, if they ever come, take the direct fallback
// path through replyTo/deliverFanAgg.
func (n *Node) expireRelays() {
	now := n.env.now()
	var ship []aggShipment
	n.relayMu.Lock()
	for key, rec := range n.relays {
		if now.Sub(rec.born) > n.env.cfg.TTA {
			delete(n.relays, key)
		}
		if len(rec.buf) > 0 {
			ship = append(ship, aggShipment{rec.root, rec.parent, rec.parentKey, rec.buf})
			rec.buf = nil
		}
	}
	n.relayMu.Unlock()
	for _, s := range ship {
		n.shipAgg(s.root, s.parent, s.parentKey, s.updates)
	}
}

// failRelaysVia reroutes relay records around a node declared dead: a
// record whose parent died flushes straight to the root from now on; a
// record whose root died is dropped entirely (nobody is waiting).
func (n *Node) failRelaysVia(p ids.NodeID) {
	var ship []aggShipment
	n.relayMu.Lock()
	for key, rec := range n.relays {
		if rec.root == p {
			delete(n.relays, key)
			continue
		}
		if rec.parent == p {
			rec.parent = rec.root
			rec.parentKey = 0
			if len(rec.buf) > 0 {
				ship = append(ship, aggShipment{rec.root, rec.parent, rec.parentKey, rec.buf})
				rec.buf = nil
			}
		}
	}
	n.relayMu.Unlock()
	for _, s := range ship {
		n.shipAgg(s.root, s.parent, s.parentKey, s.updates)
	}
}
