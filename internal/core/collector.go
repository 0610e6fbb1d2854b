package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/lamport"
)

// Status is the collector's life-cycle state.
type Status uint8

// Collector statuses.
const (
	// StatusLive is the normal operating state.
	StatusLive Status = iota + 1
	// StatusDying means garbage has been established (a consensus was
	// reached, or the dying wave arrived); the activity stops
	// heartbeating, keeps answering DGC messages with ConsensusReached,
	// and terminates after TTA (§4.3 optimization).
	StatusDying
	// StatusTerminated means the activity has been destroyed.
	StatusTerminated
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusLive:
		return "live"
	case StatusDying:
		return "dying"
	case StatusTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Reason explains a termination.
type Reason uint8

// Termination reasons.
const (
	// ReasonNone means not terminated.
	ReasonNone Reason = iota
	// ReasonAcyclic: no DGC message for TTA — no referencer exists
	// anymore (§3.1).
	ReasonAcyclic
	// ReasonCyclic: this activity made the consensus on its own final
	// activity clock (§3.2) — it is the root of the reverse spanning tree.
	ReasonCyclic
	// ReasonNotified: a DGC response carried the dying wave (§4.3).
	ReasonNotified
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonAcyclic:
		return "acyclic"
	case ReasonCyclic:
		return "cyclic-consensus"
	case ReasonNotified:
		return "cyclic-notified"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Config parameterizes a Collector.
type Config struct {
	// TTB (TimeToBeat) is the heartbeat period (§3.1).
	TTB time.Duration
	// TTA (TimeToAlone) is the silence period after which an activity
	// deems itself unreferenced, and the grace period of the dying state.
	// Correctness requires TTA > 2·TTB + MaxComm (§3.1).
	TTA time.Duration
	// DisableConsensusPropagation turns off the §4.3 dying-wave
	// optimization: a consensus then terminates only the detecting
	// activity and sub-cycles must re-run the consensus. Used by the
	// ablation benchmark; production keeps this false.
	DisableConsensusPropagation bool
	// Adaptive enables the §7.1 dynamic beat period (see Adaptive).
	Adaptive Adaptive
	// MinHeightTree enables the §7.2 extension: responses carry the
	// responder's tree depth and an activity re-adopts a strictly
	// shallower parent when one answers, driving the reverse spanning
	// tree toward minimal height (faster consensus on dense graphs).
	// Re-parenting is safe: the parent only selects where the full
	// referencer conjunction is reported, and the consensus requires the
	// agreement to hold for a full round either way.
	MinHeightTree bool
	// OnEvent, if non-nil, receives trace events (used by cmd/cycles and
	// tests). Called synchronously with internal locks held: must not call
	// back into the collector.
	OnEvent func(Event)
}

// Validate checks the deadline formula against a known communication bound.
func (c Config) Validate(maxComm time.Duration) error {
	if c.TTB <= 0 {
		return fmt.Errorf("core: TTB must be positive, got %v", c.TTB)
	}
	if min := 2*c.TTB + maxComm; c.TTA <= min {
		return fmt.Errorf("core: TTA (%v) must exceed 2*TTB+MaxComm (%v)", c.TTA, min)
	}
	return nil
}

// EventKind enumerates trace events.
type EventKind uint8

// Trace event kinds.
const (
	EventClockAdvanced EventKind = iota + 1
	EventParentAdopted
	EventReferencerAdded
	EventReferencerExpired
	EventReferencedAdded
	EventReferencedLost
	EventConsensusDetected
	EventEnteredDying
	EventTerminated
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventClockAdvanced:
		return "clock-advanced"
	case EventParentAdopted:
		return "parent-adopted"
	case EventReferencerAdded:
		return "referencer-added"
	case EventReferencerExpired:
		return "referencer-expired"
	case EventReferencedAdded:
		return "referenced-added"
	case EventReferencedLost:
		return "referenced-lost"
	case EventConsensusDetected:
		return "consensus-detected"
	case EventEnteredDying:
		return "entered-dying"
	case EventTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one trace record.
type Event struct {
	Time     time.Time
	Activity ids.ActivityID
	Kind     EventKind
	// Peer is the other activity involved, if any.
	Peer ids.ActivityID
	// Clock is the activity clock after the event.
	Clock lamport.Clock
	// Reason is set on EventTerminated and EventEnteredDying.
	Reason Reason
}

// Outbound is a DGC message scheduled by Tick for one referenced activity.
type Outbound struct {
	To  ids.ActivityID
	Msg Message
}

// TickResult is the outcome of one heartbeat.
type TickResult struct {
	// Messages are the DGC messages to broadcast, sorted by destination.
	Messages []Outbound
	// Terminated reports that the activity must be destroyed now.
	Terminated bool
	// EnteredDying reports that a consensus was established this tick and
	// the activity entered the dying grace period.
	EnteredDying bool
	// Reason qualifies Terminated or EnteredDying.
	Reason Reason
	// NextBeat is the period until the next Tick the driver should
	// schedule: the configured TTB, or an adapted period when Config.
	// Adaptive is enabled (§7.1). Zero when Terminated.
	NextBeat time.Duration
}

// referencerState is what an activity keeps about one referencer: only its
// ID (the map key), the clock and consensus of its last DGC message, and
// the reception time — O(1) per referencer (§4.3).
type referencerState struct {
	clock       lamport.Clock
	consensus   bool
	hasMessage  bool
	lastMessage time.Time
}

// referencedState is what an activity keeps about one referenced activity.
type referencedState struct {
	// lastResponse is the last DGC response received from it.
	lastResponse Response
	hasResponse  bool
	// sentOnce records that at least one DGC message was sent, satisfying
	// the "at least one DGC message at the next broadcast" rule for
	// quickly-collected references (§3.1).
	sentOnce bool
	// removeAfterSend marks a reference whose local stubs died before the
	// first message could be sent; the edge is dropped right after that
	// mandatory first send.
	removeAfterSend bool
}

// Collector is the per-activity DGC state machine. It is safe for
// concurrent use; the idleness probe passed to New must be non-blocking
// (typically an atomic read) and must not call back into the Collector.
type Collector struct {
	id   ids.ActivityID
	cfg  Config
	idle func() bool

	mu          sync.Mutex
	clock       lamport.Clock
	parent      ids.ActivityID // Nil when none
	parentDepth uint32         // the parent's distance to the originator
	referencers map[ids.ActivityID]*referencerState
	referenced  map[ids.ActivityID]*referencedState
	refPeak     int // largest len(referenced) since Tick last rebuilt it
	lastMessage time.Time
	status      Status
	reason      Reason
	dyingSince  time.Time
}

// New creates a collector for activity id. idle reports the middleware's
// local idleness notion (§3, "provided by the middleware"); permanent roots
// — registered activities and each node's root referencer (§4.1) — simply
// always report false. now is the creation time; the TTA silence timer
// starts from it.
func New(id ids.ActivityID, cfg Config, idle func() bool, now time.Time) *Collector {
	return &Collector{
		id:   id,
		cfg:  cfg,
		idle: idle,
		// A fresh activity owns its own clock from the start so that it
		// can immediately originate a consensus once idle.
		clock:       lamport.Clock{}.Tick(id),
		parent:      ids.Nil,
		referencers: make(map[ids.ActivityID]*referencerState),
		referenced:  make(map[ids.ActivityID]*referencedState),
		lastMessage: now,
		status:      StatusLive,
	}
}

// ID returns the activity this collector belongs to.
func (c *Collector) ID() ids.ActivityID { return c.id }

func (c *Collector) emit(ev Event) {
	if c.cfg.OnEvent != nil {
		ev.Activity = c.id
		c.cfg.OnEvent(ev)
	}
}

// advanceClockLocked ticks the clock with self as owner and resets the
// spanning-tree parent (the owner is its own root).
func (c *Collector) advanceClockLocked(now time.Time) {
	c.clock = c.clock.Tick(c.id)
	c.parent = ids.Nil
	c.parentDepth = 0
	c.emit(Event{Time: now, Kind: EventClockAdvanced, Clock: c.clock})
}

// depthLocked is this activity's distance to the originator along the
// reverse spanning tree: 0 for the clock owner, parent's depth + 1 when a
// parent exists, and 0 (meaningless, HasParent=false) otherwise.
func (c *Collector) depthLocked() uint32 {
	if c.clock.Owner == c.id {
		return 0
	}
	if !c.parent.IsNil() {
		return c.parentDepth + 1
	}
	return 0
}

// BecomeIdle must be called by the middleware each time the activity's
// request queue drains and its thread goes back to waiting for requests —
// clock increment occasion #1 (§3.2).
func (c *Collector) BecomeIdle(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status != StatusLive {
		return
	}
	c.advanceClockLocked(now)
}

// AddReferenced records that this activity now holds a reference to
// target, typically because a stub was just deserialized (§2.2). It also
// guarantees that at least one DGC message will be sent to target even if
// the stub is collected before the next broadcast (§3.1).
// Self-references are tracked like any other edge; the activity then
// becomes its own referencer through the normal message flow.
func (c *Collector) AddReferenced(target ids.ActivityID, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status == StatusTerminated {
		return
	}
	d, ok := c.referenced[target]
	if !ok {
		c.referenced[target] = &referencedState{}
		c.refPeak = max(c.refPeak, len(c.referenced))
		c.emit(Event{Time: now, Kind: EventReferencedAdded, Peer: target})
		return
	}
	// The reference was re-acquired before the pending removal happened.
	d.removeAfterSend = false
}

// LostReferenced records that the local garbage collector reclaimed the
// last stub this activity held for target (the shared tag died, §2.2) —
// clock increment occasion #3 (§3.2, Fig. 6). If the mandatory first
// message has not been sent yet, the edge survives until just after it.
func (c *Collector) LostReferenced(target ids.ActivityID, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.referenced[target]
	if !ok || c.status != StatusLive {
		// A dying activity keeps its clock frozen; its edges no longer
		// matter since it has stopped broadcasting.
		return
	}
	if !d.sentOnce {
		d.removeAfterSend = true
		return
	}
	delete(c.referenced, target)
	c.emit(Event{Time: now, Kind: EventReferencedLost, Peer: target})
	c.advanceClockLocked(now)
}

// HandleMessage processes a DGC message (Algorithm 3) and returns the DGC
// response to send back over the same connection.
func (c *Collector) HandleMessage(msg Message, now time.Time) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status == StatusTerminated {
		// A terminated activity no longer answers; the runtime normally
		// prevents this call. Respond with a dying-wave response so late
		// referencers converge.
		return Response{Clock: c.clock, HasParent: true, ConsensusReached: true}
	}
	if merged, advanced := lamport.Merge(c.clock, msg.Clock); advanced {
		c.clock = merged
		c.parent = ids.Nil
		c.parentDepth = 0
		c.emit(Event{Time: now, Kind: EventClockAdvanced, Clock: c.clock, Peer: msg.Sender})
	}
	r, ok := c.referencers[msg.Sender]
	if !ok {
		r = &referencerState{}
		c.referencers[msg.Sender] = r
		c.emit(Event{Time: now, Kind: EventReferencerAdded, Peer: msg.Sender})
	}
	r.clock = msg.Clock
	r.consensus = msg.Consensus
	r.hasMessage = true
	r.lastMessage = now
	c.lastMessage = now

	return Response{
		Clock:            c.clock,
		HasParent:        !c.parent.IsNil() || c.clock.Owner == c.id,
		ConsensusReached: c.status == StatusDying,
		Depth:            c.depthLocked(),
	}
}

// HandleResponse processes the DGC response ref returned for our last DGC
// message (Algorithm 4), and carries the dying wave (§4.3).
func (c *Collector) HandleResponse(from ids.ActivityID, resp Response, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status == StatusTerminated {
		return
	}
	d, ok := c.referenced[from]
	if !ok {
		return // edge dropped while the exchange was in flight
	}
	d.lastResponse = resp
	d.hasResponse = true

	if resp.ConsensusReached && c.status == StatusLive && c.idle() && resp.Clock.Equal(c.clock) {
		// The dying wave: a referenced member of our cycle learned that
		// the consensus on our common final activity clock succeeded.
		c.enterDyingLocked(now, ReasonNotified)
		return
	}
	// Adopt a parent: only activities that do not own the clock need one,
	// only once, and only if the responder's tree is rooted (Alg. 4 with
	// the ≠ signs restored; see DESIGN.md §2).
	if resp.Clock.Equal(c.clock) && resp.HasParent && c.clock.Owner != c.id {
		switch {
		case c.parent.IsNil():
			c.parent = from
			c.parentDepth = resp.Depth
			c.emit(Event{Time: now, Kind: EventParentAdopted, Peer: from, Clock: c.clock})
		case c.parent == from:
			// Keep the depth of the existing parent fresh.
			c.parentDepth = resp.Depth
		case c.cfg.MinHeightTree && resp.Depth < c.parentDepth:
			// §7.2: re-adopt a strictly shallower parent.
			c.parent = from
			c.parentDepth = resp.Depth
			c.emit(Event{Time: now, Kind: EventParentAdopted, Peer: from, Clock: c.clock})
		}
	}
}

// agreeLocked is Algorithm 1: do all known referencers accept clock?
func (c *Collector) agreeLocked(clock lamport.Clock) bool {
	for _, r := range c.referencers {
		if !r.hasMessage || !r.clock.Equal(clock) || !r.consensus {
			return false
		}
	}
	return true
}

func (c *Collector) enterDyingLocked(now time.Time, reason Reason) {
	c.status = StatusDying
	c.reason = reason
	c.dyingSince = now
	c.emit(Event{Time: now, Kind: EventEnteredDying, Reason: reason, Clock: c.clock})
}

func (c *Collector) terminateLocked(now time.Time, reason Reason) {
	c.status = StatusTerminated
	c.reason = reason
	c.emit(Event{Time: now, Kind: EventTerminated, Reason: reason, Clock: c.clock})
}

// Tick runs one heartbeat (Algorithm 2): expire silent referencers, decide
// acyclic/cyclic termination, and compute the broadcast for every
// referenced activity. The middleware calls it every TTB and must then
// deliver the returned messages (feeding each response to HandleResponse)
// and destroy the activity if Terminated is set.
func (c *Collector) Tick(now time.Time) TickResult {
	idle := c.idle()

	c.mu.Lock()
	defer c.mu.Unlock()

	if c.status == StatusTerminated {
		return TickResult{Terminated: true, Reason: c.reason}
	}

	if c.status == StatusDying {
		// The §4.3 optimization: no more heartbeats; die after TTA. The
		// clock is frozen at the final activity clock so that the dying
		// wave (carried by our responses) keeps matching the referencers'
		// clocks; referencer expiry is irrelevant to a dying activity.
		if now.Sub(c.dyingSince) >= c.cfg.TTA {
			c.terminateLocked(now, c.reason)
			return TickResult{Terminated: true, Reason: c.reason}
		}
		return TickResult{NextBeat: c.cfg.TTB}
	}

	// Loss of a referencer — clock increment occasion #2 (§3.2, Fig. 5).
	for id, r := range c.referencers {
		if now.Sub(r.lastMessage) > c.cfg.TTA {
			delete(c.referencers, id)
			c.emit(Event{Time: now, Kind: EventReferencerExpired, Peer: id})
			c.advanceClockLocked(now)
		}
	}

	if idle {
		// Acyclic garbage: total silence for TTA (§3.1).
		if now.Sub(c.lastMessage) > c.cfg.TTA {
			c.terminateLocked(now, ReasonAcyclic)
			return TickResult{Terminated: true, Reason: ReasonAcyclic}
		}
		// Cyclic garbage: we own the final activity clock and the whole
		// recursive referencer closure accepted it (§3.2 "Making a
		// Consensus"). An empty referencer set is the acyclic case above,
		// never a consensus.
		if c.clock.Owner == c.id && len(c.referencers) > 0 && c.agreeLocked(c.clock) {
			c.emit(Event{Time: now, Kind: EventConsensusDetected, Clock: c.clock})
			if c.cfg.DisableConsensusPropagation {
				c.terminateLocked(now, ReasonCyclic)
				return TickResult{Terminated: true, Reason: ReasonCyclic}
			}
			c.enterDyingLocked(now, ReasonCyclic)
			return TickResult{EnteredDying: true, Reason: ReasonCyclic, NextBeat: c.cfg.TTB}
		}
	}

	// Broadcast (Algorithm 2's loop, with the ≠ signs restored). The
	// consensus bit sent to the spanning-tree parent carries the
	// conjunction over our direct referencers plus our local agreement;
	// to every other referenced activity only the local agreement is
	// reported (§3.2 "DGC Messages and Responses").
	out := make([]Outbound, 0, len(c.referenced))
	lost := 0
	for dest, d := range c.referenced {
		consensus := idle &&
			d.hasResponse && d.lastResponse.Clock.Equal(c.clock) &&
			(c.clock.Owner == c.id || !c.parent.IsNil()) &&
			(c.parent != dest || c.agreeLocked(c.clock))
		out = append(out, Outbound{
			To:  dest,
			Msg: Message{Sender: c.id, Clock: c.clock, Consensus: consensus},
		})
		d.sentOnce = true
		if d.removeAfterSend {
			delete(c.referenced, dest)
			c.emit(Event{Time: now, Kind: EventReferencedLost, Peer: dest})
			lost++
		}
	}
	// A lost referenced advances the clock only once every message of
	// the beat is built, so they all carry the clock the beat started
	// with instead of one that depends on map order.
	for ; lost > 0; lost-- {
		c.advanceClockLocked(now)
	}
	if c.refPeak >= 256 && len(c.referenced) < c.refPeak/4 {
		// Go maps keep the buckets of their largest size: rebuild, so a
		// peak (a node root's is about one beat of handle releases) is
		// not paid for in memory for good.
		live := make(map[ids.ActivityID]*referencedState, len(c.referenced))
		maps.Copy(live, c.referenced)
		c.referenced, c.refPeak = live, len(live)
	}
	slices.SortFunc(out, func(a, b Outbound) int { return a.To.Compare(b.To) })
	return TickResult{Messages: out, NextBeat: c.nextBeatLocked(idle)}
}

// Terminate forces the terminated state (explicit termination by the
// middleware, used by no-DGC baselines and shutdown paths).
func (c *Collector) Terminate(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status == StatusTerminated {
		return
	}
	c.terminateLocked(now, c.reason)
}

// Status returns the current life-cycle state.
func (c *Collector) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// TerminationReason returns why the activity terminated (or entered
// dying); ReasonNone while live.
func (c *Collector) TerminationReason() Reason {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reason
}

// Clock returns the current activity clock.
func (c *Collector) Clock() lamport.Clock {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// Parent returns the spanning-tree parent (Nil if none).
func (c *Collector) Parent() ids.ActivityID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parent
}

// Referencers returns the IDs of the currently known referencers, sorted.
func (c *Collector) Referencers() []ids.ActivityID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ids.ActivityID, 0, len(c.referencers))
	for id := range c.referencers {
		out = append(out, id)
	}
	slices.SortFunc(out, ids.ActivityID.Compare)
	return out
}

// Referenced returns the IDs of the currently referenced activities,
// sorted.
func (c *Collector) Referenced() []ids.ActivityID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ids.ActivityID, 0, len(c.referenced))
	for id := range c.referenced {
		out = append(out, id)
	}
	slices.SortFunc(out, ids.ActivityID.Compare)
	return out
}

// String implements fmt.Stringer for debugging.
func (c *Collector) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("collector{%s %s clock=%s parent=%s in=%d out=%d}",
		c.id, c.status, c.clock, c.parent, len(c.referencers), len(c.referenced))
}
