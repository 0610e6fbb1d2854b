package active

// Live activity migration (WIRE.md §7). An activity's identifier embeds
// its birth node, and the whole runtime routes by that node — so a
// migrating activity takes a *new* identity on the destination and leaves
// a *forwarder* under the old one. The forwarder relays requests, keeps
// answering DGC heartbeats, holds a reference-graph edge to the new
// identity (so the migrated activity cannot be collected while stale
// holders exist), and pushes redirects at every contact — a
// request relay or a heartbeat — so holders rebind to the new identity on
// first contact. Once every holder has rebound, nobody references the old
// identity anymore: the forwarder goes TTA-alone and reclaims itself
// through the exact same reference-listing sweep that collects any other
// acyclic garbage. Chains of migrations collapse the same way: each hop's
// redirects are folded into a path-compressed rebind table per node.
//
// Only the wire-expressible part of an activity moves: its persistent
// state (Context.Store entries), its pending request queue, and any
// first-class futures stored in state (they re-subscribe at their home
// node from the destination). The behavior itself is Go code and cannot
// travel; migratable activities are created from a registered behavior
// kind (RegisterBehavior + Node.SpawnKind or WithKind), and the
// destination re-instantiates the behavior from the same registry — which
// is process-global, so migration works across OS processes over the TCP
// substrate as long as both ends registered the kind.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Migration errors.
var (
	// ErrNotMigratable reports a migration attempt on an activity that was
	// not created from a registered behavior kind (the destination could
	// not re-instantiate its behavior).
	ErrNotMigratable = errors.New("active: activity is not migratable (no registered behavior kind)")
	// ErrUnknownBehaviorKind reports a migration arriving at a node whose
	// process never registered the activity's behavior kind.
	ErrUnknownBehaviorKind = errors.New("active: unknown behavior kind")
	// ErrMigrationFailed wraps a destination-side failure reported back to
	// the migration's initiator.
	ErrMigrationFailed = errors.New("active: migration failed")
)

// migrateMethod is the reserved method name Handle.Migrate sends. The
// serve loop intercepts it — behaviors never see it — so a migration
// request waits its turn in the queue under the activity's ServicePolicy
// like any other request, and the activity moves between two services,
// never mid-service.
const migrateMethod = "\x00migrate"

// behaviorRegistry maps behavior kinds to factories, process-globally:
// two processes sharing a TCP deployment register the same kinds and an
// activity can then migrate between them.
var behaviorRegistry = struct {
	mu    sync.RWMutex
	kinds map[string]registeredKind
}{kinds: make(map[string]registeredKind)}

type registeredKind struct {
	factory func() Behavior
	opts    []SpawnOption
}

// RegisterBehavior registers a behavior kind: a factory producing a fresh
// Behavior plus the spawn options (e.g. WithPolicy) every instance of the
// kind is created with — at the original spawn and again at every
// migration destination, so the service discipline survives the move.
// Registering an existing kind replaces it.
func RegisterBehavior(kind string, factory func() Behavior, opts ...SpawnOption) {
	if kind == "" || factory == nil {
		panic("active: RegisterBehavior needs a kind and a factory")
	}
	behaviorRegistry.mu.Lock()
	behaviorRegistry.kinds[kind] = registeredKind{factory: factory, opts: opts}
	behaviorRegistry.mu.Unlock()
}

func lookupBehaviorKind(kind string) (registeredKind, bool) {
	behaviorRegistry.mu.RLock()
	rk, ok := behaviorRegistry.kinds[kind]
	behaviorRegistry.mu.RUnlock()
	return rk, ok
}

// SpawnKind creates an activity from a registered behavior kind and
// returns a handle to it. The activity is migratable: Handle.Migrate or
// Context.MigrateTo can move it to any node whose process registered the
// same kind.
func (n *Node) SpawnKind(name, kind string) (*Handle, error) {
	rk, ok := lookupBehaviorKind(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBehaviorKind, kind)
	}
	opts := append(append([]SpawnOption(nil), rk.opts...), WithKind(kind))
	return n.NewActive(name, rk.factory(), opts...), nil
}

// MigrateTo asks the runtime to move this activity to dst after the
// current service completes. The serve loop performs the move between two
// services; pending requests (including any that arrive during the move)
// follow the activity and are served at the destination under the same
// policy. It returns an error immediately if the activity is not
// migratable; a destination-side failure leaves the activity serving
// where it is.
func (c *Context) MigrateTo(dst ids.NodeID) error {
	if c.ao.kind == "" {
		return ErrNotMigratable
	}
	if dst == 0 {
		return fmt.Errorf("%w: zero destination node", ErrMigrationFailed)
	}
	c.ao.migrateDst.Store(uint64(dst))
	return nil
}

// Migrate moves the handle's target activity to dst. The move is itself a
// request: it waits its queue turn under the activity's service policy,
// then ships the activity's state and pending queue to dst, installs a
// forwarder under the old identity, and resolves the returned future with
// the activity's new reference. Calls through this handle keep working
// throughout — first relayed by the forwarder, then rebound by its
// redirect — so callers never observe the move except through the new
// reference. A failed migration resolves the future with the error and
// leaves the activity serving at its old home.
func (h *Handle) Migrate(dst ids.NodeID) (*Future, error) {
	if h.released.Load() {
		return nil, fmt.Errorf("migrate: %w", ErrHandleReleased)
	}
	return h.Call(migrateMethod, wire.Int(int64(dst)))
}

// serveMigrate handles an intercepted migrateMethod request on the
// activity's own goroutine. It reports whether the activity migrated (the
// serve loop then exits: the queue has moved and the object is a
// forwarder now). nested is true when the request was selected by
// Context.ServeNext from inside a running service: migrating then would
// strand the outer service, so it is refused.
func (ao *ActiveObject) serveMigrate(item *queuedRequest, nested bool) bool {
	reply := func(v wire.Value, err error) { ao.node.reply(item.req, v, err) }
	defer ao.node.heap.RemoveRoot(item.argsRoot)
	if nested {
		reply(wire.Null(), fmt.Errorf("%w: refused mid-service (ServeNext)", ErrMigrationFailed))
		return false
	}
	dst := ids.NodeID(item.req.Args.AsInt())
	if dst == 0 {
		reply(wire.Null(), fmt.Errorf("%w: zero destination node", ErrMigrationFailed))
		return false
	}
	newID, err := ao.node.migrateOut(ao, dst)
	if err != nil {
		reply(wire.Null(), err)
		return false
	}
	reply(wire.Ref(newID), nil)
	// A migration to the node the activity already lives on is a no-op
	// resolved with the unchanged identity: the serve loop must keep
	// running — nothing moved and no forwarder was installed.
	return newID != ao.id
}

// migrateOut performs the source side of a migration on the activity's
// own goroutine (no service is running): it snapshots state and queue
// into a migration envelope, ships it to dst as a request/response
// exchange, and — on success — turns ao into a forwarder for the new
// identity. On failure the activity is left fully operational.
func (n *Node) migrateOut(ao *ActiveObject, dst ids.NodeID) (ids.ActivityID, error) {
	if ao.kind == "" {
		return ids.Nil, ErrNotMigratable
	}
	if dst == n.id {
		return ao.id, nil // already home: a no-op, resolved with the current identity
	}
	if ao.registered.Load() {
		if _, sameEnv := n.env.node(dst); !sameEnv {
			// The registry is per-environment: a registered activity moving
			// to a foreign process would leave a dangling name behind.
			return ids.Nil, fmt.Errorf("%w: registered activity cannot leave its environment", ErrMigrationFailed)
		}
	}
	// Drain the pending queue into the envelope. The queue stays open:
	// requests arriving during the exchange are forwarded right after the
	// forwarder is installed, preserving per-sender FIFO (they are younger
	// than everything in the envelope).
	drained := ao.queue.drainAll()
	m := n.captureEnvelope(ao, drained)
	respBytes, err := n.transportCall(dst, transport.ClassApp, encodeMigration(m))
	if err == nil {
		var newID ids.ActivityID
		newID, err = decodeMigrateResponse(respBytes)
		if err == nil {
			for _, it := range drained {
				n.heap.RemoveRoot(it.argsRoot)
				// The item now lives on the destination and its reply will
				// reach the root directly: detach it from any tree fan-out
				// relay record it arrived through.
				n.relayDetach(it.req.Via, it.req.Future)
			}
			n.installForwarder(ao, newID)
			return newID, nil
		}
	}
	// The move failed (unknown kind at dst, unreachable, ...): put the
	// drained requests back so the activity keeps serving them here. If
	// the activity was destroyed during the exchange, dispose of them the
	// way its close would have: release the pins, fail the futures.
	ok, schedule := ao.queue.requeue(drained)
	if schedule {
		n.pool.schedule(ao)
	}
	if !ok {
		for _, it := range drained {
			n.heap.RemoveRoot(it.argsRoot)
			n.reply(it.req, wire.Null(), ErrUnknownActivity)
		}
	}
	return ids.Nil, err
}

// captureEnvelope snapshots an activity's wire-expressible half — name,
// kind, persistent state, and the given queue items — into a migration
// envelope. Migration calls it with the drained queue; checkpointing
// calls it with a non-destructive snapshot. Must run on the activity's
// own goroutine with no service in flight, so the state is quiescent.
func (n *Node) captureEnvelope(ao *ActiveObject, items []*queuedRequest) migration {
	m := migration{Old: ao.id, Name: ao.name, Kind: ao.kind}
	ao.rootsMu.Lock()
	for key, e := range ao.stateRoots {
		m.State = append(m.State, migrationState{Key: key, Value: n.heap.Materialize(e.obj)})
	}
	ao.rootsMu.Unlock()
	for _, it := range items {
		m.Queue = append(m.Queue, migrationRequest{
			Sender: it.req.Sender,
			Future: it.req.Future,
			Method: it.req.Method,
			Args:   it.req.Args,
		})
	}
	return m
}

// restoreFromEnvelope re-instantiates an activity from a migration
// envelope: behavior from the kind registry, state interned under the
// (possibly new) identity with every reference and future re-bound, and
// the envelope's queue either replayed in order (failQueue nil — the
// migration path) or failed with failQueue (the recovery and failover
// paths, where replaying a request that may already have executed would
// break at-most-once delivery). keepID restores under the envelope's
// own identity — crash recovery, where holders elsewhere still route by
// it — instead of minting a fresh one.
func (n *Node) restoreFromEnvelope(m migration, keepID bool, failQueue error) (*ActiveObject, error) {
	rk, ok := lookupBehaviorKind(m.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBehaviorKind, m.Kind)
	}
	opts := append(append([]SpawnOption(nil), rk.opts...), WithKind(m.Kind))
	if keepID {
		opts = append(opts, withForcedID(m.Old))
	}
	ao := n.newActivity(m.Name, rk.factory(), opts...)
	// State first: by the time the first replayed request is served, every
	// Load must see the restored state. Each value is stored (its pin, with
	// its edges); futures stored in state adopt local proxies and
	// re-subscribe at their home node, since the sender-side holder
	// registration of a normal delivery never happened for an envelope.
	for _, e := range m.State {
		v := wire.Rebind(e.Value, m.Old, ao.id)
		(&Context{ao: ao}).Store(e.Key, v)
		n.adoptFutures(v, ao.id, true)
	}
	for _, q := range m.Queue {
		req := request{Target: ao.id, Sender: q.Sender, Future: q.Future, Method: q.Method}
		if failQueue != nil {
			// A checkpointed in-flight request may already have executed
			// between the checkpoint and the crash: fail it rather than
			// risk running it twice. The update is dropped harmlessly if
			// the future's home node died with the sender.
			n.reply(req, wire.Null(), failQueue)
			continue
		}
		req.Args = wire.Rebind(q.Args, m.Old, ao.id)
		n.admit(ao, req, true)
	}
	return ao, nil
}

// installForwarder turns ao into the forwarder for its migrated self:
// queue closed (late arrivals relay through the forward target), state
// roots released (the state lives at the destination now), an edge to the
// new identity installed so the migrated activity stays alive while stale
// holders exist, and the activity reported idle so the collector's
// ordinary TTA machinery reclaims the forwarder once every holder has
// rebound and its beats have ceased.
func (n *Node) installForwarder(ao *ActiveObject, newID ids.ActivityID) {
	ao.fwd.Store(&newID)
	// Rebind this node immediately: local holders (handles, co-located
	// activities) never round-trip through the forwarder, and their old
	// stub tags start dying at the very next sweep.
	n.applyRedirect(ao.id, newID)
	// Close intake: pushes race-free — anything that slipped in between
	// drain and close is returned here and relayed to the new home.
	for _, it := range ao.queue.close(n.heap) {
		n.forwardQueued(ao, it.req)
	}
	// The forwarder's own edge to the migrated activity: a pinned stub,
	// so the forwarder beats it and the DGC cannot reclaim the migrated
	// activity while the forwarder (standing in for every holder that has
	// not rebound yet) is alive.
	_, root := n.heap.NewStubRooted(ao.id, newID)
	ao.rootsMu.Lock()
	ao.extraRoots[root] = struct{}{}
	ao.rootsMu.Unlock()
	// State moved: drop its pins. The stub tags die at the next sweep,
	// removing the edge to everything the activity referenced — the
	// destination holds its own edges now.
	releaseStateRoots(ao, n)
	// Home futures owned by the migrated activity stay in this node's
	// table (their identity names this node): updates still arrive here
	// and fan out to wherever the future was forwarded — including the
	// destination, which re-subscribes for every future stored in state.
	// The forwarder never consumes their values, so drop pins at
	// resolution instead of holding them until the table sweep.
	n.futures.migrateOwned(ao.id)
	// The forwarder serves nothing: it is idle from the DGC's point of
	// view, and once the last stale holder rebinds (or dies), its beats
	// stop and the TTA sweep reclaims it like any other alone activity.
	ao.idleFlag.Store(true)
	ao.collector.BecomeIdle(n.env.now())
	if ao.registered.Load() {
		n.env.rebindRegistered(ao.id, newID)
	}
	// The activity lives under its new identity now; its checkpoints do
	// too. Erase the old-identity checkpoint so a later Recover cannot
	// resurrect the pre-migration ghost alongside the migrated activity.
	if ao.kind != "" && n.env.cfg.Store != nil {
		_ = n.env.cfg.Store.Delete(ao.id)
	}
	// Tell the directory: the source is an origin of this mapping, so it
	// re-announces to the shard as owners change, long after the
	// forwarder itself has collapsed.
	n.announceLocation(ao.id, newID)
}

// releaseStateRoots drops only the state pins (installForwarder keeps the
// freshly added extraRoots: the stub pinning the forward target).
func releaseStateRoots(ao *ActiveObject, n *Node) {
	ao.rootsMu.Lock()
	defer ao.rootsMu.Unlock()
	for _, e := range ao.stateRoots {
		n.heap.RemoveRoot(e.root)
	}
	ao.stateRoots = make(map[string]stateEntry)
}

// handleMigrateIn is the destination side: re-instantiate the behavior
// from the registry, restore state (rewriting self-references to the new
// identity and re-binding every reference and future exactly as a
// delivered payload would), then replay the pending queue in order. The
// response carries the new identity (or the failure).
func (n *Node) handleMigrateIn(payload []byte) []byte {
	m, err := decodeMigration(payload)
	if err != nil {
		return encodeMigrateResponse(ids.Nil, err)
	}
	ao, err := n.restoreFromEnvelope(m, false, nil)
	if err != nil {
		return encodeMigrateResponse(ids.Nil, err)
	}
	// The destination knows the mapping too: local senders still holding
	// the old reference route directly instead of round-tripping through
	// the forwarder — and as the mapping's second origin it keeps the
	// directory shard populated even if the source node dies.
	n.announceLocation(m.Old, ao.id)
	return encodeMigrateResponse(ao.id, nil)
}

// forwardQueued relays one request that was queued for (or delivered
// to) an activity that has since migrated: see readdress.
func (n *Node) forwardQueued(ao *ActiveObject, req request) {
	if newID := ao.forwardTarget(); !newID.IsNil() {
		req.Target = ao.id
		n.readdress(req, wire.EncodeAfter(0, req.Args), newID)
	}
}

// readdress relays a request, its args encoded in raw, to newID, the
// identity its target moved to: every reference to the old identity in
// the args is rewritten, and the request is re-sent through the ordinary
// routing path — which resolves further rebinds, so a chain of
// migrations is crossed in one hop per forwarder. The args are decoded
// without binding anything: edges bind at the final recipient, not at
// the relay. The sender's node is told to rebind.
func (n *Node) readdress(req request, raw []byte, newID ids.ActivityID) {
	enc, ok := rebindArgs(raw, req.Method, req.Target, newID)
	if !ok {
		return
	}
	old := req.Target
	req.Target = newID
	_ = n.sendRequest(req, enc)
	n.sendRedirect(req.Sender.Node, old, newID)
}

// rebindArgs re-encodes raw args for method's request with every
// reference to old rewritten to new; ok is false for malformed args.
func rebindArgs(raw []byte, method string, old, new ids.ActivityID) (enc []byte, ok bool) {
	args, err := wire.DecodePayload(raw, false)
	if err != nil {
		return nil, false
	}
	return encodeArgs(method, wire.Rebind(args, old, new)), true
}

// sendRedirect ships a rebinding notice to dst (applying it locally when
// dst is this node): a one-pair directory announce, urgent because a
// holder is contacting the old identity right now (WIRE.md §7). Redirects
// are fire-and-forget: a lost notice only means the holder pays one more
// forwarder hop (or one more heartbeat) before the next one.
func (n *Node) sendRedirect(dst ids.NodeID, old, new ids.ActivityID) {
	if old.IsNil() || new.IsNil() || old == new {
		return
	}
	if dst == n.id {
		n.applyRedirect(old, new)
		return
	}
	_ = n.transportSend(dst, transport.ClassApp, location.AppendAnnounce(nil, []location.Rebind{{Old: old, New: new}}), true)
}

// applyRedirect rebinds this node to an activity's new identity: the
// location cache (send routing) and every heap stub (state and pinned
// payloads), whose pins move their holders' edges to the new identity.
// The old stub tags die at the next sweep, removing the old edges —
// which is what stops this node's beats toward the forwarder and lets it
// collapse.
func (n *Node) applyRedirect(old, new ids.ActivityID) {
	if old.IsNil() || new.IsNil() || old == new {
		return
	}
	n.addRebind(old, new)
	n.heap.RebindStubs(old, new)
}

// addRebind records old → new in the node's learned-location cache.
func (n *Node) addRebind(old, new ids.ActivityID) {
	n.locCache.Add(old, new)
}

// resolveRebind rewrites a send target through the node's location
// cache (identity on a miss — the overwhelmingly common case).
func (n *Node) resolveRebind(id ids.ActivityID) ids.ActivityID {
	return n.locCache.Resolve(id)
}

// forwardTarget returns the new identity an activity forwards to (Nil for
// a live, unmigrated activity).
func (ao *ActiveObject) forwardTarget() ids.ActivityID {
	if p := ao.fwd.Load(); p != nil {
		return *p
	}
	return ids.Nil
}

// migrateOwned prepares the home future entries of a migrated activity
// for their post-migration life: kept in the table (their identity names
// this node; updates and late subscriptions must keep landing here),
// marked emigrated (resolution binds no owner-side consumer pin — the
// real owner lives at the destination now — and the forwarder's eventual
// destruction must not fail them), and shared (so resolution retains
// them for the TTA-grace window late subscribers rely on). Pins for
// co-located *holders* of such a future are untouched: those activities
// still consume the value here and keep their pins until they do.
func (t *futureTable) migrateOwned(owner ids.ActivityID) {
	var owned []*Future
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, f := range s.pending {
			if f.owner == owner && !f.proxy {
				owned = append(owned, f)
			}
		}
		s.mu.Unlock()
	}
	for _, f := range owned {
		f.emigrated.Store(true)
		f.shared.Store(true)
	}
}
