package active

// Sharded location directory (WIRE.md §9). Every node keeps one bounded
// table of moved activities (location.Cache: location.DefaultCacheSize
// entries, least recently used evicted first, chains compressed lazily
// on lookup), and the table plays three parts:
//
//   - the cache of *learned* locations — the fast path every outgoing
//     send consults, fed by relocation notices;
//   - the node's *origin* knowledge: the mappings it created by taking
//     part in a migration (source and destination both record it),
//     marked so that they are re-announced — what outlives forwarder
//     collapse and directory shard loss;
//   - the node's *shard* of the directory: every activity ID
//     consistent-hashes to a home shard on some cluster member,
//     migration announcements are pushed to the owning shard, and the
//     shard answers location queries from what it was told.
//
// One table means one bound: a node remembers the last DefaultCacheSize
// moves it heard of, its own included, not every move for ever. An
// evicted entry costs the fallback below, never a wrong answer.
//
// Every relocation notice has one wire form, location.TagAnnounce, and
// one receiver, handleLocAnnounce: a forwarder's redirect is a one-pair
// announce, a shard announcement or re-announcement a batch, and a
// graceful Leave or failover adoption sends its batch to every member
// process over the cluster channel (Env.relocate).
//
// The directory is soft state on top of the migration protocol's
// forwarders: a cache miss falls back to the forwarder hop; a dead
// forwarder falls back to a shard query; a dead shard is repopulated by
// the origin nodes re-announcing a few entries per DGC beat to the
// ring's new owner.

import (
	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/transport"
	"repro/internal/wire"
)

// locReannouncePerBeat is how many origin entries a node re-pushes to
// their current shard owner per DGC beat — the shard handoff mechanism
// after an owner death.
const locReannouncePerBeat = 8

// refreshRing rebuilds the environment's consistent-hash ring from the
// current member view: every local node plus (with the cluster runtime
// on) every known remote member, minus declared-dead nodes. Called on
// every topology change; lookups are a single atomic load.
func (e *Env) refreshRing() {
	e.mu.Lock()
	members := make([]ids.NodeID, 0, len(e.nodes))
	for id := range e.nodes {
		members = append(members, id)
	}
	e.mu.Unlock()
	if ag := e.cluster; ag != nil {
		ag.mu.Lock()
		for id := range ag.members {
			members = append(members, id)
		}
		ag.mu.Unlock()
	}
	alive := members[:0]
	for _, m := range members {
		if !e.isDeadNode(m) {
			alive = append(alive, m)
		}
	}
	e.ring.Store(location.NewRing(alive, 0))
}

// announceLocation records a migration this node took part in (old →
// new) as an origin entry, rebinds the node's own stale stubs, and
// pushes the mapping to its home shard. Both ends of a migration
// announce, so the directory survives either of them dying. The stubs
// are rebound at once because the entry already routes this node's
// sends past the forwarder, whose redirect would otherwise have done it.
func (n *Node) announceLocation(old, new ids.ActivityID) {
	if old.IsNil() || new.IsNil() || old == new {
		return
	}
	n.locCache.AddOrigin(old, new)
	n.heap.RebindStubs(old, new)
	n.directoryAnnounce([]location.Rebind{{Old: old, New: new}})
}

// directoryAnnounce routes rebinds to their home shards as TagAnnounce
// envelopes (non-urgent: they may share a batch frame with whatever else
// is heading there). Rebinds whose shard this node owns need no message:
// they come from its own table.
func (n *Node) directoryAnnounce(rebinds []location.Rebind) {
	ring := n.env.ring.Load()
	var byOwner map[ids.NodeID][]location.Rebind
	for _, rb := range rebinds {
		owner, ok := ring.Owner(rb.Old)
		if !ok || owner == n.id {
			continue
		}
		if byOwner == nil {
			byOwner = make(map[ids.NodeID][]location.Rebind)
		}
		byOwner[owner] = append(byOwner[owner], rb)
	}
	for owner, batch := range byOwner {
		// A dead or unreachable owner drops the announce; the per-beat
		// re-announce repairs the shard once the ring reflects the death.
		_ = n.transportSend(owner, transport.ClassApp, location.AppendAnnounce(nil, batch), false)
	}
}

// handleLocAnnounce applies a relocation notice — a redirect, an
// announcement to this node's shard, or a Leave's or failover's batch,
// all handled alike: every entry rebinds local stale stubs and enters
// the table that answers both this node's sends and location queries.
func (n *Node) handleLocAnnounce(payload []byte) {
	rebinds, err := location.DecodeAnnounce(payload)
	if err != nil {
		return
	}
	for _, rb := range rebinds {
		n.applyRedirect(rb.Old, rb.New)
	}
}

// handleLocQuery answers a TagQuery exchange from this node's
// authority: hosted activities (live or forwarding), then its table.
func (n *Node) handleLocQuery(payload []byte) []byte {
	id, err := location.DecodeQuery(payload)
	if err != nil {
		return nil
	}
	if new, ok := n.resolveLocation(id); ok {
		return location.AppendReply(nil, new, true)
	}
	return location.AppendReply(nil, ids.Nil, false)
}

// resolveLocation is the node's full location knowledge for one ID.
func (n *Node) resolveLocation(id ids.ActivityID) (ids.ActivityID, bool) {
	if ao, ok := n.activity(id); ok {
		if newID := ao.forwardTarget(); !newID.IsNil() {
			return newID, true
		}
		return id, true
	}
	if new := n.resolveRebind(id); new != id {
		return new, true
	}
	return ids.Nil, false
}

// tryDirectoryRelay is the unknown-target slow path: the request named
// an activity this node does not host and has no cached location for —
// before failing the caller, ask the ID's home shard. The exchange runs
// on its own goroutine (a transport handler must not block on a nested
// call), so raw, the request's encoded args, must be the relay's own.
// When the shard does not know the ID either, the caller's future fails with
// failErr — ErrUnknownActivity on the delivery paths, ErrNodeDead on
// the dead-home send path, preserving each path's sentinel contract. It
// reports whether the directory took responsibility for the request.
func (n *Node) tryDirectoryRelay(req request, failErr error, raw []byte) bool {
	owner, ok := n.env.ring.Load().Owner(req.Target)
	if !ok || owner == n.id || n.env.isDeadNode(owner) {
		// No shard to ask (or this node *is* the shard and already
		// answered from resolveLocation via the caller's rebind check).
		return false
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		resp, err := n.transportCall(owner, transport.ClassApp, location.AppendQuery(nil, req.Target))
		if err == nil {
			if newID, known, derr := location.DecodeReply(resp); derr == nil && known && newID != req.Target {
				n.applyRedirect(req.Target, newID)
				n.readdress(req, raw, newID)
				return
			}
		}
		// The shard does not know it either (never announced, or truly
		// collected): fail the caller like the pre-directory path did.
		n.reply(req, wire.Null(), failErr)
	}()
	return true
}

// locationBeat runs the directory's per-beat work: re-announce a
// rotating slice of the origin entries to the current shard owners,
// which repopulates a shard within a handful of beats of its previous
// owner dying.
func (n *Node) locationBeat() {
	n.locMu.Lock()
	reannounce, next := n.locCache.ScanOrigin(n.locCursor, locReannouncePerBeat)
	n.locCursor = next
	n.locMu.Unlock()
	if len(reannounce) > 0 {
		n.directoryAnnounce(reannounce)
	}
}
