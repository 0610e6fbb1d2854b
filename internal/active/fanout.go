package active

// Tree-structured group fan-out (WIRE.md §10). A flat Group.Broadcast
// costs the root one envelope (and one reply) per member; past ~10^3
// members the root's send loop and inbound reply burst dominate. The
// tree path instead ships per-destination-node request bundles down a
// relay tree of degree FanOutDegree: each relay delivers its own bundle
// locally, splits the remaining bundles among at most FanOutDegree
// child relays, and aggregates replies hop-by-hop — the root receives
// O(degree) aggregate envelopes instead of O(members) updates.
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
type fanEntry struct {
	Target ids.ActivityID
	Sender ids.ActivityID
	Future FutureID
	Args   wire.Value
}

// fanOutEnv is the decoded envFanOut envelope.
type fanOutEnv struct {
	Root   ids.NodeID // the caller's node: fallback reply destination
	AggKey uint64     // relay-record key on the sender (0 = sender is the root)
	Method string
	Shared bool
	Args   wire.Value // shared args; only meaningful when Shared
	Bundle []fanBundle
}

// Decode caps, far above anything the group layer produces.
const (
	maxFanBundles = 1 << 12
	maxFanEntries = 1 << 17
)

// encodeFanOut packs: tag | root(4) | aggKey(8) | method | shared(1) |
// [shared args] | uvarint bundle count | bundles. Each bundle is
// dst(4) | uvarint entry count | entries; each entry target(8) |
// sender(8) | future(8) | [args] (args present iff !shared).
func encodeFanOut(e fanOutEnv) []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, envFanOut)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Root))
	buf = binary.LittleEndian.AppendUint64(buf, e.AggKey)
	buf = wire.AppendString(buf, e.Method)
	if e.Shared {
		buf = append(buf, 1)
		buf = wire.Encode(buf, e.Args)
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
				buf = wire.Encode(buf, en.Args)
			}
		}
	}
	return buf
}

func decodeFanOut(buf []byte) (fanOutEnv, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(envFanOut)
	var dec wire.Decoder
	e := fanOutEnv{Root: ids.NodeID(r.U32()), AggKey: r.U64(), Method: r.String(), Shared: r.Byte() != 0}
	if e.Shared {
		e.Args = r.Value(&dec)
	}
	total := 0 // entries across all bundles, capped at maxFanEntries
	for nb := r.Count(maxFanBundles); nb > 0 && r.Err() == nil; nb-- {
		b := fanBundle{Dst: ids.NodeID(r.U32())}
		b.Entries = make([]fanEntry, r.Count(maxFanEntries-total))
		total += len(b.Entries)
		for j := range b.Entries {
			en := &b.Entries[j]
			en.Target, en.Sender, en.Future = r.ID(), r.ID(), r.Future()
			if !e.Shared {
				en.Args = r.Value(&dec)
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
		born:      n.env.cfg.Clock.Now(),
		pending:   pending,
	}
	return key
}

// aggEnqueue intercepts a locally produced reply for a tree fan-out
// delivery: buffered on the record and flushed upward once the subtree
// is complete. Reports false when the record is gone — the caller then
// replies directly (the fallback that makes aggregation lossless).
func (n *Node) aggEnqueue(key uint64, u futureUpdate) bool {
	n.relayMu.Lock()
	rec, ok := n.relays[key]
	if !ok {
		n.relayMu.Unlock()
		return false
	}
	delete(rec.pending, u.Future)
	rec.buf = append(rec.buf, encodeFutureUpdate(u))
	done := len(rec.pending) == 0
	if done {
		delete(n.relays, key)
	}
	n.relayMu.Unlock()
	if !u.Failed {
		// The aggregate rides node-to-node, but holder registration for
		// futures inside the value is the producing node's job, exactly
		// as on the direct-reply path.
		n.noteFutureValuesSent(rec.root, u.Value)
	}
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
			n.deliverFutureUpdate(u)
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
// FanOutDegree child relays, and leave a relay record awaiting the
// subtree's replies.
func (n *Node) deliverFanOut(from ids.NodeID, payload []byte) {
	e, err := decodeFanOut(payload)
	if err != nil {
		return
	}
	var mine []fanEntry
	var rest []fanBundle
	pending := make(map[FutureID]struct{})
	for _, b := range e.Bundle {
		for _, en := range b.Entries {
			if !en.Future.IsZero() {
				pending[en.Future] = struct{}{}
			}
		}
		if b.Dst == n.id {
			mine = append(mine, b.Entries...)
		} else {
			rest = append(rest, b)
		}
	}
	var key uint64
	if len(pending) > 0 {
		key = n.newRelay(from, e.AggKey, e.Root, pending)
	}
	n.forwardFanOut(e, rest, key)
	for _, en := range mine {
		args := e.Args
		if !e.Shared {
			args = en.Args
		}
		n.deliverLocalRequest(request{
			Target: en.Target,
			Sender: en.Sender,
			Future: en.Future,
			Method: e.Method,
			Args:   args,
			Via:    key,
		})
	}
}

// forwardFanOut splits bundles among at most FanOutDegree child relays
// (contiguous slices; the first bundle's destination doubles as the
// relay). A child that cannot be reached fails its subtree's futures
// immediately — into the record when there is one, directly to the root
// otherwise.
func (n *Node) forwardFanOut(e fanOutEnv, rest []fanBundle, key uint64) {
	if len(rest) == 0 {
		return
	}
	degree := n.env.cfg.FanOutDegree
	if degree <= 0 {
		degree = 4
	}
	groups := degree
	if len(rest) < groups {
		groups = len(rest)
	}
	per := (len(rest) + groups - 1) / groups
	for i := 0; i < len(rest); i += per {
		end := i + per
		if end > len(rest) {
			end = len(rest)
		}
		group := rest[i:end]
		child := fanOutEnv{
			Root:   e.Root,
			AggKey: key,
			Method: e.Method,
			Shared: e.Shared,
			Args:   e.Args,
			Bundle: group,
		}
		if err := n.transportSend(group[0].Dst, transport.ClassApp, encodeFanOut(child), true); err != nil {
			n.failFanBundles(group, key, e.Root, err)
		}
	}
}

// failFanBundles fails every future of the given bundles with err —
// the subtree can never be delivered.
func (n *Node) failFanBundles(bundles []fanBundle, key uint64, root ids.NodeID, err error) {
	for _, b := range bundles {
		for _, en := range b.Entries {
			if en.Future.IsZero() {
				continue
			}
			u := futureUpdate{Future: en.Future, Failed: true, Err: err.Error()}
			if key != 0 && n.aggEnqueue(key, u) {
				continue
			}
			if root == n.id {
				n.deliverLocalFutureUpdate(u)
				continue
			}
			_ = n.transportSend(root, transport.ClassFuture, encodeFutureUpdate(u), true)
		}
	}
}

// replyTo routes a request's reply: into the relay record for tree
// fan-out deliveries (Via), directly to the future's home otherwise —
// including the fallback when the record has already expired.
func (n *Node) replyTo(req request, u futureUpdate) {
	if req.Via != 0 && n.aggEnqueue(req.Via, u) {
		return
	}
	n.sendFutureUpdate(req.Future, u)
}

// expireRelays runs the relay upkeep each driver beat: buffered replies
// are flushed upward even while the subtree is incomplete (stragglers
// must not hold back the rest), and records older than TTA are dropped —
// their remaining replies, if they ever come, take the direct fallback
// path through replyTo/deliverFanAgg.
func (n *Node) expireRelays() {
	now := n.env.cfg.Clock.Now()
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
