package active

// Durable activities (WIRE.md §11, DESIGN.md §9). A checkpoint is the
// same envelope live migration ships — name, kind, persistent state,
// pending queue — wrapped with the activity's registered names and
// persisted into Config.Store under the activity's identity. Capture
// always happens on the activity's own goroutine between two services
// (the driver's checkpoint beat enqueues a reserved-method request, just
// like Handle.Migrate), so the snapshot is quiescent by construction and
// the worker pool is never stalled.
//
// Recovery is at-most-once: Env.Recover re-instantiates checkpointed
// activities from the RegisterBehavior registry under their old
// identities and re-registers their names, but the requests that were
// checkpointed in flight are failed with ErrRecovered instead of being
// replayed — a request captured in a queue snapshot may also have
// executed between the checkpoint and the crash, and running it twice is
// the one thing a crash must never cause. Callers treat ErrRecovered
// like any other retryable failure.
//
// Failover extends the same machinery across a cluster: when a member
// is declared dead (ClusterConfig.Failover), the lowest-ID surviving
// (non-tombstoned) member
// adopts the dead node's checkpoints, restores them under fresh
// identities, and publishes the old→new rebinds as the relocation
// notice a graceful Leave sends — holders of the dead identities rebind
// at once, exactly as a migration redirect rebinds them.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/wire"
)

// Durability errors.
var (
	// ErrRecovered fails a request that was in flight when its target
	// crashed and was restored from a checkpoint: the runtime cannot know
	// whether the request executed before the crash, so it refuses to
	// replay it (at-most-once delivery; DESIGN.md §9). Retry if the call
	// is idempotent.
	ErrRecovered = errors.New("active: request lost to crash recovery")
	// ErrNoStore reports a checkpoint or recovery attempt on an
	// environment without a Config.Store.
	ErrNoStore = errors.New("active: no checkpoint store configured")
	// ErrNotDurable reports a checkpoint attempt on an activity that was
	// not created from a registered behavior kind (recovery could not
	// re-instantiate its behavior, so persisting it would be a lie).
	ErrNotDurable = errors.New("active: activity is not durable (no registered behavior kind)")
)

// checkpointMethod is the reserved method the checkpoint beat (and
// Handle.Checkpoint) sends. The serve loop intercepts it like
// migrateMethod: behaviors never see it, and the snapshot waits its
// queue turn under the activity's service policy.
const checkpointMethod = "\x00checkpoint"

// checkpoint is one persisted activity: the migration envelope plus the
// registry names to restore it under.
type checkpoint struct {
	Env   migration
	Names []string
}

// encodeCheckpoint wraps the migration envelope with a length prefix
// (decodeMigration rejects trailing bytes) and the uvarint-counted
// registered names.
func encodeCheckpoint(c checkpoint) []byte {
	env := encodeMigration(c.Env)
	buf := wire.AppendBytes(make([]byte, 0, len(env)+16), env)
	buf = binary.AppendUvarint(buf, uint64(len(c.Names)))
	for _, name := range c.Names {
		buf = wire.AppendString(buf, name)
	}
	return buf
}

func decodeCheckpoint(buf []byte) (checkpoint, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	env := r.Bytes()
	var c checkpoint
	for n := r.Count(r.Len()); n > 0 && r.Err() == nil; n-- {
		c.Names = append(c.Names, r.String())
	}
	if err := r.Done(); err != nil {
		return c, err
	}
	var err error
	c.Env, err = decodeMigration(env)
	return c, err
}

// checkpointNow captures and persists one activity. It must run where a
// service could: on the activity's own goroutine between services, or
// before the activity has been published to any holder (failover
// adoption) — anywhere else would snapshot mid-mutation state.
func (n *Node) checkpointNow(ao *ActiveObject) error {
	st := n.env.cfg.Store
	if st == nil {
		return ErrNoStore
	}
	if ao.kind == "" {
		return ErrNotDurable
	}
	if !ao.forwardTarget().IsNil() {
		return fmt.Errorf("%w: activity migrated away", ErrNotDurable)
	}
	c := checkpoint{
		Env:   n.captureEnvelope(ao, ao.queue.snapshotItems()),
		Names: n.env.namesOf(ao.id),
	}
	if err := st.Put(ao.id, encodeCheckpoint(c)); err != nil {
		return err
	}
	ao.ckptDirty.Store(false)
	return nil
}

// serveCheckpoint handles an intercepted checkpointMethod request on the
// activity's own goroutine, resolving the caller's future (if any) with
// the activity's reference on success. It always reports false: a
// checkpoint never ends the serve loop. nested mirrors serveMigrate: a
// ServeNext selection from inside a running service is refused, because
// the outer service is mid-mutation.
func (ao *ActiveObject) serveCheckpoint(item *queuedRequest, nested bool) bool {
	reply := func(v wire.Value, err error) { ao.node.reply(item.req, v, err) }
	defer ao.node.heap.RemoveRoot(item.argsRoot)
	if nested {
		reply(wire.Null(), fmt.Errorf("%w: checkpoint refused mid-service (ServeNext)", ErrNotDurable))
		return false
	}
	if err := ao.node.checkpointNow(ao); err != nil {
		reply(wire.Null(), err)
		return false
	}
	reply(wire.Ref(ao.id), nil)
	return false
}

// checkpointBeat rides the driver beat: every durable activity whose
// checkpoint is due (dirty, cadence elapsed) gets a reserved-method
// request, and the snapshot itself runs on the activity's goroutine when
// its turn comes. Clean activities cost one atomic load per beat;
// without a Store or a cadence the whole beat is two comparisons.
func (n *Node) checkpointBeat(now time.Time) {
	every := n.env.cfg.CheckpointEvery
	if n.env.cfg.Store == nil || every <= 0 {
		return
	}
	for _, ao := range n.snapshotActivities() {
		if ao.kind == "" || ao.terminated.Load() || !ao.forwardTarget().IsNil() {
			continue
		}
		if ao.nextCkpt.After(now) || !ao.ckptDirty.Load() {
			continue
		}
		ao.nextCkpt = now.Add(every)
		ao.enqueue(getQueued(request{
			Target: ao.id,
			Sender: ao.id,
			Method: checkpointMethod,
			Args:   wire.Null(),
		}))
	}
}

// Checkpoint asks the activity to persist itself. Like Migrate, the
// checkpoint is itself a request: it waits its queue turn under the
// activity's service policy and the returned future resolves with the
// activity's reference once the snapshot is durably on the store (or
// with the failure).
func (h *Handle) Checkpoint() (*Future, error) {
	if h.released.Load() {
		return nil, fmt.Errorf("checkpoint: %w", ErrHandleReleased)
	}
	return h.Call(checkpointMethod, wire.Null())
}

// Checkpoint asks the runtime to persist this activity right after the
// current service completes (the snapshot must see the service's final
// state, so it cannot run mid-service). It returns an error immediately
// if the activity can never be checkpointed; the write itself is
// asynchronous and its failure is dropped — call Handle.Checkpoint for
// an acknowledged snapshot.
func (c *Context) Checkpoint() error {
	if c.ao.kind == "" {
		return ErrNotDurable
	}
	if c.ao.node.env.cfg.Store == nil {
		return ErrNoStore
	}
	c.ao.ckptWanted.Store(true)
	return nil
}

// namesOf returns the registry names bound to id, sorted.
func (e *Env) namesOf(id ids.ActivityID) []string {
	e.mu.Lock()
	var out []string
	for name, target := range e.names {
		if target == id {
			out = append(out, name)
		}
	}
	e.mu.Unlock()
	sort.Strings(out)
	return out
}

// registerRecovered re-binds a checkpointed registry name to a restored
// activity. Unlike RegisterName it cannot fail: the activity was just
// created by the caller.
func (e *Env) registerRecovered(name string, ao *ActiveObject) {
	e.mu.Lock()
	e.names[name] = ao.id
	e.mu.Unlock()
	ao.registered.Store(true)
	ao.ckptDirty.Store(true)
}

// ensureNode returns the live node with the given ID, re-creating it if
// recovery needs a node that died with the old process. A re-created
// node advances the environment's node-ID allocation (and the cluster's
// lease block) past itself so later NewNode calls cannot collide.
func (e *Env) ensureNode(id ids.NodeID) *Node {
	e.mu.Lock()
	if n, ok := e.nodes[id]; ok {
		e.mu.Unlock()
		return n
	}
	if e.closed {
		e.mu.Unlock()
		panic("active: Recover on closed Env")
	}
	n := newNode(e, id)
	e.nodes[id] = n
	n.start()
	e.mu.Unlock()
	e.nodeGen.SkipTo(id + 1)
	if e.cluster != nil {
		e.cluster.skipLeases(id + 1)
		e.cluster.noteNodeUp(id)
	}
	e.refreshRing()
	return n
}

// Recover restores every checkpointed activity from Config.Store into
// this environment: behaviors re-instantiated from the RegisterBehavior
// registry, state re-interned, registry names re-bound — all under the
// pre-crash identities, so references held by surviving processes keep
// working (after their own node's rebind caches miss and re-resolve).
// Nodes that no longer exist are re-created. Checkpointed in-flight
// requests are failed with ErrRecovered, not replayed (at-most-once;
// see the package comment). Activities already live in this environment
// are skipped, so Recover is idempotent and safe to call on a
// partially recovered environment.
//
// It returns how many activities were restored. A checkpoint that fails
// to decode (or names an unregistered behavior kind) is skipped and
// reported through the returned error; everything restorable is still
// restored.
func (e *Env) Recover() (int, error) {
	st := e.cfg.Store
	if st == nil {
		return 0, ErrNoStore
	}
	snap, err := st.Load()
	if err != nil {
		return 0, err
	}
	keys := make([]ids.ActivityID, 0, len(snap))
	for id := range snap {
		keys = append(keys, id)
	}
	// Identity order keeps recovery deterministic (and with it the IDs
	// any post-recovery spawn mints).
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	restored := 0
	var firstErr error
	for _, id := range keys {
		c, err := decodeCheckpoint(snap[id])
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("checkpoint %v: %w", id, err)
			}
			continue
		}
		if _, live := e.activity(id); live {
			continue
		}
		n := e.ensureNode(id.Node)
		ao, err := n.restoreFromEnvelope(c.Env, true, ErrRecovered)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("checkpoint %v: %w", id, err)
			}
			continue
		}
		for _, name := range c.Names {
			e.registerRecovered(name, ao)
		}
		restored++
	}
	return restored, firstErr
}

// adoptDeadNode is the failover path: called when the cluster declares a
// member dead. The designated survivor — the lowest-ID member not
// tombstoned dead or left, a final, gossiped judgment, so the same on
// every process — adopts the dead node's checkpoints if it
// is hosted here: each is restored under a fresh identity (the dead
// node's ID range must stay dead: identifiers are never reused),
// re-checkpointed under the new identity, re-registered, and the
// old→new rebinds go out as relocation notices (Env.relocate),
// exactly as a graceful Node.Leave hands its activities off.
func (e *Env) adoptDeadNode(dead ids.NodeID) {
	st := e.cfg.Store
	if st == nil || e.cluster == nil || !e.cluster.cfg.Failover {
		return
	}
	var survivor *Node
	for _, m := range e.ClusterMembers() {
		// Skip only tombstoned members: dead/left are final and gossiped,
		// so every process elects the same survivor. Suspect is a
		// transient, process-local judgment — electing over it would let
		// two processes disagree on who adopts.
		if m.Node == dead || m.State == cluster.StateDead || m.State == cluster.StateLeft {
			continue
		}
		// The designated survivor may live in another process; then it
		// runs this adoption against the shared store, not us.
		survivor = e.Node(m.Node)
		break
	}
	if survivor == nil {
		return
	}
	snap, err := st.Load()
	if err != nil {
		return
	}
	keys := make([]ids.ActivityID, 0, 8)
	for id := range snap {
		if id.Node == dead {
			keys = append(keys, id)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var moved []location.Rebind
	for _, old := range keys {
		c, err := decodeCheckpoint(snap[old])
		if err != nil {
			continue
		}
		ao, err := survivor.restoreFromEnvelope(c.Env, false, ErrRecovered)
		if err != nil {
			continue
		}
		// Persist under the new identity before anyone can reach the
		// activity — names and rebinds are published below, so capturing
		// here cannot race with a service. The names come from the dead
		// node's checkpoint: they are about to be re-bound to ao.
		_ = st.Put(ao.id, encodeCheckpoint(checkpoint{
			Env:   survivor.captureEnvelope(ao, nil),
			Names: c.Names,
		}))
		ao.ckptDirty.Store(false)
		_ = st.Delete(old)
		for _, name := range c.Names {
			e.registerRecovered(name, ao)
		}
		survivor.announceLocation(old, ao.id)
		moved = append(moved, location.Rebind{Old: old, New: ao.id})
	}
	// The notice goes out from its own goroutine: a member process that
	// died too would hold this death's handling, and the beat running it,
	// for its dial timeouts. A member it misses still finds the adopted
	// activities through the directory; the miss counts in
	// Stats.RelocateFailures.
	e.cluster.background(func() { _ = e.relocate(moved) })
}
