package active

// Service policies: the request-selection half of the serve-loop
// redesign. The paper's middleware exposes service primitives beyond
// plain FIFO — serve the oldest matching request, serve selectively from
// the pending queue (§5–§6's serveOldest and friends). Here the selection
// is lifted behind the ServicePolicy interface: every activity's serve
// loop asks its policy which pending request to serve next, and
// Context.ServeNext lets a behavior serve selectively mid-service.

import "repro/internal/ids"

// RequestInfo describes one pending request to a ServicePolicy. The
// pending slice handed to Select is in arrival order (oldest first).
type RequestInfo struct {
	// Method is the request's method name.
	Method string
	// Sender is the calling activity.
	Sender ids.ActivityID
	// HasFuture reports whether the caller awaits a reply.
	HasFuture bool
}

// ServicePolicy picks the next request an activity serves. Select
// receives the pending requests oldest-first and returns the index to
// serve, or a negative value to serve nothing yet (the serve loop then
// blocks until new requests arrive — note that an activity holding
// pending-but-unselected requests counts as busy, never idle, so the DGC
// cannot collect it out from under a starving policy). Select is always
// invoked from the owning activity's service goroutine, but one policy
// value may be shared by many activities, so implementations must be
// safe for concurrent use (the built-ins are stateless).
type ServicePolicy interface {
	Select(pending []RequestInfo) int
}

// fifoPolicy is the default arrival-order policy. The serve loop
// special-cases it (and nil) to skip building RequestInfo slices, so the
// default path stays exactly as cheap — and wire- and
// semantics-identical — as the hard-wired queue it replaced.
type fifoPolicy struct{}

// Select implements ServicePolicy.
func (fifoPolicy) Select(pending []RequestInfo) int {
	if len(pending) == 0 {
		return -1
	}
	return 0
}

// FIFO returns the default policy: serve requests in arrival order.
func FIFO() ServicePolicy { return fifoPolicy{} }

// lifoPolicy serves the newest request first.
type lifoPolicy struct{}

// Select implements ServicePolicy.
func (lifoPolicy) Select(pending []RequestInfo) int { return len(pending) - 1 }

// LIFO returns the newest-first policy (a stack discipline: useful when
// fresh requests carry fresher state and stale ones may be shed by the
// behavior itself).
func LIFO() ServicePolicy { return lifoPolicy{} }

// priorityPolicy serves the highest-priority method first, FIFO within a
// priority class.
type priorityPolicy struct {
	prio map[string]int
}

// Select implements ServicePolicy.
func (p priorityPolicy) Select(pending []RequestInfo) int {
	best, bestPrio := -1, 0
	for i, r := range pending {
		pr := p.prio[r.Method]
		if best < 0 || pr > bestPrio {
			best, bestPrio = i, pr
		}
	}
	return best
}

// PriorityByMethod returns a policy serving the pending request whose
// method has the highest priority (FIFO among equal priorities). Methods
// absent from prio have priority 0; the map is copied.
func PriorityByMethod(prio map[string]int) ServicePolicy {
	cp := make(map[string]int, len(prio))
	for m, p := range prio {
		cp[m] = p
	}
	return priorityPolicy{prio: cp}
}

// serveOldestPolicy serves the oldest request among a method set.
type serveOldestPolicy struct {
	methods map[string]struct{}
}

// Select implements ServicePolicy.
func (p serveOldestPolicy) Select(pending []RequestInfo) int {
	if len(p.methods) == 0 {
		if len(pending) == 0 {
			return -1
		}
		return 0
	}
	for i, r := range pending {
		if _, ok := p.methods[r.Method]; ok {
			return i
		}
	}
	return -1
}

// ServeOldest returns the paper's serveOldest primitive as a policy: the
// oldest pending request whose method is one of methods is served;
// everything else stays queued until a matching request exists. With no
// methods it degenerates to FIFO. As a standing policy it starves
// non-matching requests — its natural home is Context.ServeNext, where a
// behavior serves selectively for one step and then returns to its
// standing policy.
func ServeOldest(methods ...string) ServicePolicy {
	set := make(map[string]struct{}, len(methods))
	for _, m := range methods {
		set[m] = struct{}{}
	}
	return serveOldestPolicy{methods: set}
}

// spawnOptions collects per-activity creation knobs.
type spawnOptions struct {
	policy ServicePolicy
	kind   string
	// id forces the new activity's identity instead of minting one —
	// crash recovery restoring a checkpointed activity under the identity
	// its holders still route by. Internal only; the node's ID generator
	// is advanced past it so later spawns cannot collide.
	id ids.ActivityID
}

// SpawnOption configures one activity at creation (Node.NewActive,
// Context.Spawn).
type SpawnOption func(*spawnOptions)

// WithPolicy sets the activity's standing service policy. nil (the
// default) means FIFO.
func WithPolicy(p ServicePolicy) SpawnOption {
	return func(o *spawnOptions) { o.policy = p }
}

// WithKind tags the activity with a registered behavior kind (see
// RegisterBehavior), making it migratable: Handle.Migrate and
// Context.MigrateTo can move it to any node whose process registered the
// same kind. Node.SpawnKind applies it automatically.
func WithKind(kind string) SpawnOption {
	return func(o *spawnOptions) { o.kind = kind }
}

// withForcedID restores an activity under a pre-existing identity
// (Env.Recover). Unexported: user code must never pick identities.
func withForcedID(id ids.ActivityID) SpawnOption {
	return func(o *spawnOptions) { o.id = id }
}
