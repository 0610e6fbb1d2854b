package active

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/transport"
)

// ErrNodeDead reports an operation against a node the cluster has
// declared failed: new sends toward it are refused fast, and the futures
// that were owed results from it fail with this sentinel instead of
// hanging. It keeps its identity across the wire (wireSentinels), so a
// holder on any node can errors.Is it. Check with errors.Is.
var ErrNodeDead = errors.New("active: node is dead")

// ClusterConfig enables the elastic cluster runtime of an environment:
// membership (seed bootstrap, join/leave, node-ID leases), failure
// detection piggybacked on the DGC heartbeat traffic, and crash cleanup
// (ErrNodeDead fan-out, table purges). Disabled, none of its machinery
// runs and the hot path pays a single nil check.
type ClusterConfig struct {
	// Enabled turns the cluster runtime on.
	Enabled bool
	// Seed is the address of an existing member process to join through
	// (any member can be contacted; node-ID leases are granted by the
	// founding seed). Empty means bootstrap this process as the founding
	// seed. Only meaningful on substrates with process addressing
	// (tcpnet); a simnet environment is always its own single-process
	// cluster.
	Seed string
	// SuspectAfter is how long a member may go without observed contact
	// before it is suspected and probed. Defaults to 3×TTB: a member
	// referenced by anyone is heartbeated every TTB, so three missed
	// beats are genuine silence.
	SuspectAfter time.Duration
	// DeadAfter is how long a member may stay suspect before it is
	// declared dead. Defaults to TTA.
	DeadAfter time.Duration
	// Failover lets a surviving member adopt a confirmed-dead member's
	// checkpointed activities (Config.Store must be set): the lowest-ID
	// alive node restores them under fresh identities and the old→new
	// pairs go to every member as the relocation notice a graceful Leave
	// sends.
	// Holders of the dead identities rebind transparently; requests that
	// were in flight at the crash fail with ErrRecovered (at-most-once,
	// DESIGN.md §9).
	Failover bool
}

// Member is one entry of the cluster membership view.
type Member struct {
	Node ids.NodeID
	// Addr is the listen address of the process hosting the node (empty
	// in a single-process cluster).
	Addr string
	// State is the member's health as seen from this process.
	State cluster.State
}

// clusterAgent is the per-environment cluster runtime: it owns the
// membership map, the failure detector, the node-ID lease client (or the
// leaser itself, on the seed), and the gossip exchange. It is the
// process handler for process-addressed cluster frames on substrates
// that have them.
type clusterAgent struct {
	env    *Env
	cfg    ClusterConfig
	health *cluster.Health
	// pc is the transport's process-addressing extension; nil on simnet,
	// where the whole cluster lives in this process and no bootstrap or
	// gossip traffic is needed.
	pc       transport.ProcessCaller
	selfAddr string
	seedAddr string // "" when this process is the founding seed

	mu      sync.Mutex
	joined  bool
	stopped bool
	members map[ids.NodeID]string // node → hosting process address
	leaser  *cluster.Leaser       // non-nil on the founding seed
	// Current node-ID lease block: next free identifier and last granted
	// identifier (inclusive); exhausted when leaseNext > leaseEnd.
	leaseNext, leaseEnd uint32
	lastTick            time.Time

	wg sync.WaitGroup
}

var _ transport.Handler = (*clusterAgent)(nil)

// leaseBlock is how many node IDs a process leases from the seed at once
// (the Want of Join and Lease, WIRE.md §8).
const leaseBlock = 64

func newClusterAgent(e *Env) *clusterAgent {
	cc := e.cfg.Cluster
	if cc.SuspectAfter <= 0 {
		cc.SuspectAfter = 3 * e.cfg.TTB
	}
	if cc.DeadAfter <= 0 {
		cc.DeadAfter = e.cfg.TTA
	}
	a := &clusterAgent{
		env:     e,
		cfg:     cc,
		health:  cluster.NewHealth(cluster.HealthConfig{SuspectAfter: cc.SuspectAfter, DeadAfter: cc.DeadAfter}),
		members: make(map[ids.NodeID]string),
	}
	if pc, ok := e.net.(transport.ProcessCaller); ok {
		a.pc = pc
		a.selfAddr = pc.Addr()
		pc.SetProcessHandler(a)
	}
	if cc.Seed == "" || a.pc == nil {
		// Founding seed (or single-process cluster): own the identifier
		// space, starting where FirstNode says (clamped to 1).
		a.leaser = cluster.NewLeaser(e.cfg.FirstNode)
	} else {
		a.seedAddr = cc.Seed
	}
	return a
}

// ensureJoinedLocked performs the one-time bootstrap: the seed grants
// itself its first lease block; a joiner contacts the seed for a lease
// and the current member map. Caller holds a.mu.
func (a *clusterAgent) ensureJoinedLocked() error {
	if a.joined {
		return nil
	}
	if a.leaser != nil {
		first, count := a.leaser.Grant(leaseBlock)
		a.leaseNext, a.leaseEnd = uint32(first), uint32(first)+uint32(count)-1
		a.joined = true
		return nil
	}
	req := cluster.EncodeJoin(cluster.Join{Addr: a.selfAddr, Want: leaseBlock})
	resp, err := a.pc.CallAddr(a.seedAddr, transport.ClassCluster, req)
	if err != nil {
		return fmt.Errorf("active: join cluster via %s: %w", a.seedAddr, err)
	}
	if err := cluster.DecodeResponse(resp); err != nil {
		return fmt.Errorf("active: join cluster via %s: %w", a.seedAddr, err)
	}
	ok, err := cluster.DecodeJoinOK(resp)
	if err != nil {
		return fmt.Errorf("active: join cluster via %s: %w", a.seedAddr, err)
	}
	a.leaseNext, a.leaseEnd = uint32(ok.First), uint32(ok.First)+uint32(ok.Count)-1
	now := a.env.now()
	for _, m := range ok.Members {
		a.members[m.Node] = m.Addr
		if m.Addr != "" && m.Addr != a.selfAddr {
			a.pc.AddPeer(m.Node, m.Addr)
		}
		a.health.Add(m.Node, now)
	}
	a.joined = true
	return nil
}

// nextNodeID allocates a node identifier from the current lease block,
// joining the cluster and refreshing the lease from the seed as needed.
// It panics on bootstrap failure (NewNode's error surface); call
// Env.Join first to handle join errors gracefully.
func (a *clusterAgent) nextNodeID() ids.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ensureJoinedLocked(); err != nil {
		panic(err.Error() + " (call Env.Join to handle this as an error)")
	}
	if a.leaseNext > a.leaseEnd {
		if a.leaser != nil {
			first, count := a.leaser.Grant(leaseBlock)
			a.leaseNext, a.leaseEnd = uint32(first), uint32(first)+uint32(count)-1
		} else {
			resp, err := a.pc.CallAddr(a.seedAddr, transport.ClassCluster, cluster.EncodeLease(cluster.Lease{Want: leaseBlock}))
			if err == nil {
				err = cluster.DecodeResponse(resp)
			}
			var ok cluster.LeaseOK
			if err == nil {
				ok, err = cluster.DecodeLeaseOK(resp)
			}
			if err != nil {
				panic(fmt.Sprintf("active: node-ID lease from seed %s: %v", a.seedAddr, err))
			}
			a.leaseNext, a.leaseEnd = uint32(ok.First), uint32(ok.First)+uint32(ok.Count)-1
		}
	}
	id := ids.NodeID(a.leaseNext)
	a.leaseNext++
	return id
}

// noteNodeUp records a locally created node and gossips it to every
// known member process (and the seed), which is how the rest of the
// cluster learns both the node and the address to dial it at.
func (a *clusterAgent) noteNodeUp(id ids.NodeID) {
	a.health.Add(id, a.env.now())
	a.mu.Lock()
	a.members[id] = a.selfAddr
	targets := a.remoteAddrsLocked("")
	a.mu.Unlock()
	a.gossip(cluster.EncodeNodeEvent(cluster.MsgNodeUp, cluster.NodeEvent{Node: id, Addr: a.selfAddr}), targets)
}

// noteNodeLeft records a graceful local departure and gossips it.
func (a *clusterAgent) noteNodeLeft(id ids.NodeID) {
	if !a.health.MarkLeft(id) {
		return
	}
	a.mu.Lock()
	delete(a.members, id)
	targets := a.remoteAddrsLocked("")
	a.mu.Unlock()
	a.env.refreshRing()
	a.gossip(cluster.EncodeNodeEvent(cluster.MsgNodeLeft, cluster.NodeEvent{Node: id}), targets)
}

// remoteAddrsLocked returns the distinct remote process addresses gossip
// should reach: every member's host plus the seed, excluding this
// process and exclude. Caller holds a.mu.
func (a *clusterAgent) remoteAddrsLocked(exclude string) []string {
	if a.pc == nil {
		return nil
	}
	seen := map[string]struct{}{a.selfAddr: {}, "": {}, exclude: {}}
	var out []string
	if a.seedAddr != "" {
		seen[a.seedAddr] = struct{}{}
		out = append(out, a.seedAddr)
	}
	for _, addr := range a.members {
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		out = append(out, addr)
	}
	return out
}

// gossip ships a membership payload to each target process in the
// background. Gossip is fire-and-forget: an unreachable target either is
// dead (its failure will be detected and its state purged) or will catch
// up from another member's relay.
func (a *clusterAgent) gossip(payload []byte, targets []string) {
	if a.pc == nil || len(targets) == 0 {
		return
	}
	a.background(func() {
		for _, addr := range targets {
			_, _ = a.pc.CallAddr(addr, transport.ClassCluster, payload)
		}
	})
}

// background runs f on a goroutine that stop waits for, unless the agent
// has stopped.
func (a *clusterAgent) background(f func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		f()
	}()
}

// stop prevents further background exchanges and waits out the running
// ones (called by Env.Close before the transport goes down).
func (a *clusterAgent) stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.wg.Wait()
}

// observe feeds the failure detector with proof of life from inbound
// traffic — the piggybacking that keeps the happy path free of any
// dedicated liveness message.
func (a *clusterAgent) observe(from ids.NodeID) {
	a.health.Observe(from, a.env.now())
}

// noteExchange feeds the detector with the outcome of an outbound
// request/response exchange (the DGC driver's heartbeats, mostly): a
// success proves the peer alive, a failure makes it suspect.
func (a *clusterAgent) noteExchange(dst ids.NodeID, err error) {
	now := a.env.now()
	if err == nil {
		a.health.Observe(dst, now)
		return
	}
	if errors.Is(err, ErrNodeDead) {
		return // already declared; nothing new to learn
	}
	a.health.ObserveFailure(dst, now)
}

// maybeTick advances the failure detector at most once per TTB; the DGC
// drivers of all local nodes call it from their beat, so detection needs
// no timer of its own. Members that transitioned to dead are cleaned up
// and gossiped; current suspects are probed in the background through n.
func (a *clusterAgent) maybeTick(n *Node) {
	now := a.env.now()
	a.mu.Lock()
	if a.stopped || (!a.lastTick.IsZero() && now.Sub(a.lastTick) < a.env.cfg.TTB) {
		a.mu.Unlock()
		return
	}
	a.lastTick = now
	a.mu.Unlock()
	// A process vouches for its own nodes: they share its fate, so
	// silence must never walk them down the suspect path (an idle local
	// node would oscillate alive↔suspect on probe timing — and a
	// transiently-suspect local node would lose a failover-survivor
	// election it is running in).
	for _, id := range a.env.localNodeIDs() {
		a.health.Observe(id, now)
	}
	probe, dead := a.health.Tick(now)
	for _, p := range dead {
		a.onDeath(p)
	}
	for _, p := range probe {
		a.spawnProbe(n, p)
	}
}

// spawnProbe pings a suspect in the background: the one message class
// that exists only off the happy path. A pong resurrects the suspect; an
// error leaves the dead countdown running.
func (a *clusterAgent) spawnProbe(n *Node, p ids.NodeID) {
	a.background(func() {
		resp, err := n.transportCall(p, transport.ClassCluster, cluster.EncodePing())
		if err == nil && len(resp) > 0 && resp[0] == cluster.MsgPong {
			a.health.Observe(p, a.env.now())
		}
	})
}

// onDeath runs the confirmed-death protocol for p (whose health state is
// already Dead): purge its runtime state, fail what it owed, refuse new
// sends, and tell the other member processes.
func (a *clusterAgent) onDeath(p ids.NodeID) {
	a.env.failDeadNode(p)
	a.mu.Lock()
	delete(a.members, p)
	targets := a.remoteAddrsLocked("")
	a.mu.Unlock()
	if a.pc != nil {
		a.pc.RemovePeer(p)
	}
	a.gossip(cluster.EncodeNodeEvent(cluster.MsgNodeDead, cluster.NodeEvent{Node: p}), targets)
	// With failover on, the designated survivor adopts the dead node's
	// checkpointed activities now that every in-flight obligation toward
	// the dead node has been failed fast.
	a.env.adoptDeadNode(p)
}

// skipLeases advances this process's node-ID allocation past first:
// recovery re-created nodes with pre-crash identifiers, and a later
// NewNode must not collide with them. On the founding seed the leaser
// itself advances; the local lease block is clamped on every process.
func (a *clusterAgent) skipLeases(first ids.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.leaser != nil {
		a.leaser.SkipTo(first)
	}
	switch {
	case a.leaseNext >= uint32(first):
		// Already past it.
	case uint32(first) <= a.leaseEnd:
		a.leaseNext = uint32(first)
	default:
		// The whole remaining block sits below first: burn it and grant a
		// fresh one on the next NewNode.
		a.leaseNext = a.leaseEnd + 1
	}
}

// ---------------------------------------------------------------------------
// Inbound cluster traffic.

// HandleCall implements transport.Handler for process-addressed frames:
// join/lease exchanges and gossip deliveries (WIRE.md §8).
func (a *clusterAgent) HandleCall(from ids.NodeID, class transport.Class, payload []byte) []byte {
	if class != transport.ClassCluster || len(payload) == 0 {
		return nil
	}
	switch payload[0] {
	case cluster.MsgJoin:
		return a.handleJoin(payload)
	case cluster.MsgLease:
		return a.handleLease(payload)
	case cluster.MsgNodeUp, cluster.MsgNodeDead, cluster.MsgNodeLeft:
		a.handleEvent(payload)
		return cluster.EncodeAck()
	case location.TagAnnounce:
		a.env.applyAnnounce(payload)
		return cluster.EncodeAck()
	case cluster.MsgPing:
		return cluster.EncodePong()
	default:
		return cluster.EncodeErr("unknown cluster message")
	}
}

// HandleOneWay implements transport.Handler (gossip may also arrive
// one-way).
func (a *clusterAgent) HandleOneWay(from ids.NodeID, class transport.Class, payload []byte) {
	if class != transport.ClassCluster || len(payload) == 0 {
		return
	}
	switch payload[0] {
	case cluster.MsgNodeUp, cluster.MsgNodeDead, cluster.MsgNodeLeft:
		a.handleEvent(payload)
	}
}

// handleNodeCall answers node-addressed cluster exchanges (the suspect
// probe) on behalf of a node.
func (a *clusterAgent) handleNodeCall(from ids.NodeID, payload []byte) []byte {
	if len(payload) > 0 && payload[0] == cluster.MsgPing {
		return cluster.EncodePong()
	}
	return nil
}

// handleJoin grants a node-ID lease and returns the current member map.
// Only the founding seed owns the leaser; a joiner that contacted a
// non-seed member is refused with the seed's address to retry against.
func (a *clusterAgent) handleJoin(payload []byte) []byte {
	j, err := cluster.DecodeJoin(payload)
	if err != nil {
		return cluster.EncodeErr(err.Error())
	}
	a.mu.Lock()
	if a.leaser == nil {
		seed := a.seedAddr
		a.mu.Unlock()
		return cluster.EncodeErr("not the seed process; join via " + seed)
	}
	first, count := a.leaser.Grant(j.Want)
	ms := make([]cluster.Member, 0, len(a.members))
	for node, addr := range a.members {
		ms = append(ms, cluster.Member{Node: node, Addr: addr})
	}
	a.mu.Unlock()
	return cluster.EncodeJoinOK(cluster.JoinOK{First: first, Count: count, Members: ms})
}

// handleLease grants a further node-ID block to an existing member.
func (a *clusterAgent) handleLease(payload []byte) []byte {
	l, err := cluster.DecodeLease(payload)
	if err != nil {
		return cluster.EncodeErr(err.Error())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.leaser == nil {
		return cluster.EncodeErr("not the seed process; lease via " + a.seedAddr)
	}
	first, count := a.leaser.Grant(l.Want)
	return cluster.EncodeLeaseOK(cluster.LeaseOK{First: first, Count: count})
}

// handleEvent applies one gossip delivery. News (a state change this
// process had not seen) is relayed to the other members, so any member
// hearing an event first floods it to everyone; already-known events are
// absorbed, which terminates the flood.
func (a *clusterAgent) handleEvent(payload []byte) {
	kind, ev, err := cluster.DecodeNodeEvent(payload)
	if err != nil {
		return
	}
	switch kind {
	case cluster.MsgNodeUp:
		if s := a.health.StateOf(ev.Node); s == cluster.StateDead || s == cluster.StateLeft {
			return // identifiers are never reused; late node-up cannot resurrect
		}
		a.mu.Lock()
		if _, known := a.members[ev.Node]; known {
			a.mu.Unlock()
			return
		}
		a.members[ev.Node] = ev.Addr
		targets := a.remoteAddrsLocked(ev.Addr)
		a.mu.Unlock()
		if a.pc != nil && ev.Addr != "" && ev.Addr != a.selfAddr {
			a.pc.AddPeer(ev.Node, ev.Addr)
		}
		a.health.Add(ev.Node, a.env.now())
		a.env.refreshRing()
		a.gossip(payload, targets)
	case cluster.MsgNodeDead:
		if a.health.MarkDead(ev.Node) {
			a.onDeath(ev.Node)
		}
	case cluster.MsgNodeLeft:
		if !a.health.MarkLeft(ev.Node) {
			return
		}
		a.mu.Lock()
		delete(a.members, ev.Node)
		targets := a.remoteAddrsLocked("")
		a.mu.Unlock()
		if a.pc != nil {
			a.pc.RemovePeer(ev.Node)
		}
		a.env.refreshRing()
		a.gossip(payload, targets)
	}
}

// ---------------------------------------------------------------------------
// Env surface.

// Join performs the cluster bootstrap explicitly (contact the seed,
// receive a node-ID lease and the member map) and surfaces its error.
// Without it, the first NewNode joins implicitly and panics on failure.
// Join is a no-op on the seed, on single-process clusters, and once
// joined.
func (e *Env) Join() error {
	if e.cluster == nil {
		return fmt.Errorf("active: cluster runtime not enabled")
	}
	e.cluster.mu.Lock()
	defer e.cluster.mu.Unlock()
	return e.cluster.ensureJoinedLocked()
}

// ClusterMembers returns the membership view of this process: every
// known member with its hosting address and health state, sorted by node
// identifier. Dead and left members appear as tombstones. It returns nil
// when the cluster runtime is disabled.
func (e *Env) ClusterMembers() []Member {
	if e.cluster == nil {
		return nil
	}
	states := e.cluster.health.Snapshot()
	e.cluster.mu.Lock()
	out := make([]Member, 0, len(states))
	for node, st := range states {
		out = append(out, Member{Node: node, Addr: e.cluster.members[node], State: st})
	}
	e.cluster.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// NodeHealth returns the health state of a member as seen from this
// process (cluster.StateUnknown when untracked or the cluster runtime is
// disabled).
func (e *Env) NodeHealth(p ids.NodeID) cluster.State {
	if e.cluster == nil {
		return cluster.StateUnknown
	}
	return e.cluster.health.StateOf(p)
}

// ---------------------------------------------------------------------------
// Death bookkeeping: the dead-node set and the cleanup fan-out.

// markDeadNode adds p to the environment's copy-on-write dead set — the
// structure behind the hot path's refuse-fast check (one atomic load, no
// lock, nil until the first death).
func (e *Env) markDeadNode(p ids.NodeID) {
	e.deadMu.Lock()
	defer e.deadMu.Unlock()
	next := make(map[ids.NodeID]struct{})
	if old := e.deadNodes.Load(); old != nil {
		for k := range *old {
			next[k] = struct{}{}
		}
	}
	next[p] = struct{}{}
	e.deadNodes.Store(&next)
}

// isDeadNode reports whether p has been declared dead.
func (e *Env) isDeadNode(p ids.NodeID) bool {
	m := e.deadNodes.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[p]
	return ok
}

// failDeadNode runs the local consequences of a confirmed death: refuse
// new sends toward p, fail every future that was owed a result from it
// (fanned out to all registered holders), purge p from holder lists, and
// drop rebind entries pointing at it. The orphaned remote subgraphs need
// no explicit action — activities referenced only from p stop hearing
// beats and collect themselves acyclically after TTA (§4.2), with p's
// tags effectively treated as dropped roots.
func (e *Env) failDeadNode(p ids.NodeID) {
	e.markDeadNode(p)
	e.refreshRing()
	err := fmt.Errorf("%w: node-%d", ErrNodeDead, p)
	for _, n := range e.localNodes() {
		n.futures.failNodeDead(p, err)
		n.purgeRebindsTo(p)
		n.failRelaysVia(p)
	}
}

// Leave departs the cluster gracefully: every live activity hosted on
// this node is drained to dst via live migration (WIRE.md §7), the
// departure is announced to the members, and the node shuts down. Unlike
// a crash, nothing fails with ErrNodeDead — callers follow the migrated
// activities to dst. Registered activities can only be drained within
// their environment (the registry is per-Env); a cross-process Leave
// with registered activities returns ErrMigrationFailed. Activities
// without a registered kind cannot migrate and abort the Leave.
func (n *Node) Leave(dst ids.NodeID) error {
	if dst == n.id {
		return fmt.Errorf("active: Leave: destination is the leaving node")
	}
	var moved []location.Rebind
	for _, ao := range n.snapshotActivities() {
		if ao.terminated.Load() || !ao.forwardTarget().IsNil() {
			continue
		}
		h := n.handle(ao.id)
		fut, err := h.Migrate(dst)
		if err == nil {
			_, err = fut.Wait(30 * time.Second)
		}
		h.Release()
		if err != nil {
			return fmt.Errorf("active: Leave: drain %v to %v: %w", ao.id, dst, err)
		}
		// Push the rebinding at every referencer the forwarder knows
		// (the reference-listing DGC keeps that list): the forwarder
		// disappears with this node, so the usual heartbeat-triggered
		// redirect may never get its chance.
		if newID := ao.forwardTarget(); !newID.IsNil() {
			moved = append(moved, location.Rebind{Old: ao.id, New: newID})
			for _, ref := range ao.collector.Referencers() {
				if ref.Node != n.id {
					n.sendRedirect(ref.Node, ao.id, newID)
				}
			}
		}
	}
	// Referencer lists are only as fresh as the last heartbeat, so a
	// holder whose first beat has not landed yet would miss the pushed
	// redirect and be left with a reference into a vanished node. The
	// relocation notice closes that gap: every local node and every
	// member process applies it. The node leaves even if a member missed
	// it (the directory still answers there); Leave reports the miss.
	err := n.env.relocate(moved)
	// Give the pushed redirects one beat to land before the node — and
	// the forwarders with it — disappears.
	n.env.sleep(n.env.cfg.TTB)
	if ag := n.env.cluster; ag != nil {
		ag.noteNodeLeft(n.id)
	}
	n.Crash()
	if err != nil {
		return fmt.Errorf("active: Leave: %w", err)
	}
	return nil
}

// relocateAttempts is how many times relocate tries each send.
const relocateAttempts = 3

// relocate publishes a batch of relocations (old → new) as directory
// announces of at most location.MaxAnnounce pairs each: applied on every
// local node at once, then sent to every other member process over the
// acked cluster channel, so holders no forwarder knows of rebind before
// the forwarders go away (a graceful Leave, a failover adoption). Each
// member gets the announces in order, from this goroutine: its location
// table evicts the least recently used entries, so a short announce that
// overtook a long one would be evicted by it. Every failed send counts in
// Stats.RelocateFailures and is retried; the error names the last lost.
func (e *Env) relocate(rebinds []location.Rebind) (lost error) {
	var payloads [][]byte
	for len(rebinds) > 0 {
		chunk := rebinds[:min(len(rebinds), location.MaxAnnounce)]
		rebinds = rebinds[len(chunk):]
		payloads = append(payloads, location.AppendAnnounce(nil, chunk))
		e.applyAnnounce(payloads[len(payloads)-1])
	}
	a := e.cluster
	if a == nil || a.pc == nil {
		return nil
	}
	a.mu.Lock()
	targets := a.remoteAddrsLocked("")
	a.mu.Unlock()
	for _, addr := range targets {
		for _, payload := range payloads {
			for try := 1; ; try++ {
				_, err := a.pc.CallAddr(addr, transport.ClassCluster, payload)
				if err == nil {
					break
				}
				if e.relocateFailures.Add(1); try == relocateAttempts {
					lost = fmt.Errorf("active: relocate to %s: %w", addr, err)
					break
				}
			}
		}
	}
	return lost
}

// applyAnnounce hands a directory announce to every local node.
func (e *Env) applyAnnounce(payload []byte) {
	for _, n := range e.localNodes() {
		n.handleLocAnnounce(payload)
	}
}

// routeCheck refuses traffic toward a node the cluster declared dead —
// the fail-fast guard in front of every outbound send and call. The
// dead set is nil until a death is confirmed, so the check is one atomic
// load on the healthy path.
func (n *Node) routeCheck(dst ids.NodeID) error {
	if dst == n.id || !n.env.isDeadNode(dst) {
		return nil
	}
	return fmt.Errorf("%w: node-%d", ErrNodeDead, dst)
}

// purgeRebindsTo drops location entries whose target lives on a dead
// node: resolving a stale reference onto a dead destination would only
// trade a hang for a slower failure. Entries *through* identities of
// the dead node (key on the dead node, value alive elsewhere) are kept —
// they are exactly what lets a late call through a dead forwarder still
// reach the migrated activity.
func (n *Node) purgeRebindsTo(p ids.NodeID) {
	n.locCache.PurgeTargets(p)
}
