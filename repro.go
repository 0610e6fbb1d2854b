// Package repro is a complete distributed garbage collector (DGC) for
// activities, reproducing Caromel, Chazarain & Henrio, "Garbage Collecting
// the Grid: A Complete DGC for Activities" (Middleware 2007).
//
// The package offers the middleware the paper builds on — an active-object
// runtime with asynchronous calls and futures — with the paper's DGC wired
// in: acyclic garbage is reclaimed by heartbeat reference listing
// (TTB/TTA), and cyclic garbage by a consensus on a named Lamport
// "activity clock" over a reverse spanning tree, needing no connectivity
// beyond what the application already has.
//
// Quickstart (the typed v2 API):
//
//	type GreetReq struct{ Name string }
//	type GreetResp struct{ Text string }
//
//	env := repro.NewEnv(repro.Config{})
//	defer env.Close()
//	node := env.NewNode()
//	h := node.NewActive("greeter", repro.NewService(
//		repro.Method("greet", func(ctx *repro.Context, req GreetReq) (GreetResp, error) {
//			return GreetResp{Text: "hello, " + req.Name}, nil
//		})))
//	stub := repro.NewStub[GreetReq, GreetResp](h, "greet")
//	resp, _ := stub.CallSync(GreetReq{Name: "grid"}, time.Second)
//	h.Release() // the activity is garbage now; the DGC reclaims it
//
// Stub.Call returns a TypedFuture resolving to the response struct;
// NewGroup fans one method out over many activities (Broadcast/Scatter)
// and collects the replies in a FutureGroup. Marshal/Unmarshal map Go
// structs onto the closed wire value model, so remote references (Value
// refs or ActivityID fields) always stay visible to the collector —
// the typed façade cannot hide an edge from the DGC.
//
// Futures are first-class (paper §5–§6): a *Future or *TypedFuture can
// travel inside call arguments and results before it resolves — receive
// it as a FutureRef (or Value) field and lift it with Context.Future /
// FutureFor — and wait-by-necessity happens only at the activity that
// finally touches the value; the runtime propagates resolutions (and
// remote failures) to every forwarding hop and flattens future-of-future
// chains. The serve loop is policy-driven: FIFO (default), LIFO,
// PriorityByMethod and ServeOldest select which pending request an
// activity serves next (WithPolicy, or RegisterBehavior's options), and
// Context.ServeNext serves selectively mid-service.
//
// The dynamic substrate remains available: a Behavior serves raw
// (method string, args Value) pairs, Handle.Call/CallSync speak it, and
// a *Service is itself a Behavior, so both surfaces interoperate on the
// same activity.
//
// Activities form reference graphs through the values they exchange:
// storing a reference (Context.Store) creates an edge, dropping it
// (Context.Delete, or simply not storing it) lets the local collector
// reclaim the stub and the DGC remove the edge. Cycles — including
// distributed ones — are collected once every activity in the cycle's
// referencer closure is idle, which is the paper's Garbage property.
//
// The network substrate is pluggable: Config.Transport selects the
// backend behind the runtime — nil means a zero-latency in-memory
// simulated network, NewSimTransport builds one with a latency model
// (internal/simnet), and NewTCPTransport gives real TCP connections
// (internal/tcpnet) with identical FIFO, exchange and accounting
// semantics, so the same program runs single-process, multi-process or
// multi-machine (see examples/tcpdemo and Config.FirstNode). The
// substrate also states the bound on one-way communication time that
// the TTA formula needs (Transport.MaxComm).
//
// The runtime runs on the wall clock. The paper's 30 s beats are run
// compressed by dividing every paper-time duration (TTB, TTA, latencies,
// timeouts) by one factor and multiplying measured durations by it; the
// DGC depends only on duration ratios (DESIGN.md §3, examples/griddeploy).
//
// Config.Cluster makes the deployment elastic: processes join through a
// seed at runtime (Env.Join) and lease disjoint node-ID blocks, failure
// detection piggybacks on the DGC's own heartbeat traffic (no dedicated
// liveness messages on the healthy path), and a confirmed crash fails
// the dead node's owed futures with ErrNodeDead, purges its routing
// state and lets the DGC reclaim the subgraphs it orphaned. Node.Leave
// departs gracefully, draining every hosted activity to a surviving
// node via live migration first. Env.ClusterMembers and Env.NodeHealth
// expose the membership view.
//
// The deeper machinery lives in internal packages: internal/core is the
// collector state machine (Algorithms 1–4), internal/active the live
// goroutine runtime, internal/transport the substrate contract,
// internal/sim a deterministic discrete-event harness at paper scale,
// internal/nas and internal/torture the evaluation workloads. See
// ARCHITECTURE.md for the package map and message flow, DESIGN.md for
// the design record, WIRE.md for the wire formats, and EXPERIMENTS.md
// for the paper-vs-measured record.
package repro

import (
	"time"

	"repro/internal/active"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Re-exported core types. See the internal packages for full
// documentation.
type (
	// Config parameterizes an environment (TTB, TTA, transport — and the
	// hot-path batching knob Config.BatchWindow: a positive
	// BatchWindow routes each node's outbound traffic through a
	// per-destination flusher that packs co-destination messages into one
	// frame, see WIRE.md §5).
	Config = active.Config
	// Env is one distributed system: nodes, network, registry, DGC.
	Env = active.Env
	// Node is one process hosting activities.
	Node = active.Node
	// Handle lets non-active code reference and call an activity; it acts
	// as a DGC root until released.
	Handle = active.Handle
	// Future is the placeholder for an asynchronous call's result.
	Future = active.Future
	// Context is the API available to a Behavior during a service.
	Context = active.Context
	// Behavior is the application code of an activity.
	Behavior = active.Behavior
	// BehaviorFunc adapts a function to Behavior.
	BehaviorFunc = active.BehaviorFunc
	// Value is the closed value model exchanged between activities.
	Value = wire.Value
	// ActivityID identifies an activity.
	ActivityID = ids.ActivityID
	// NodeID identifies a node.
	NodeID = ids.NodeID
	// Stats summarizes collections.
	Stats = active.Stats
	// Event is a DGC trace event.
	Event = core.Event
	// Reason explains a termination.
	Reason = core.Reason
	// Topology models a multi-site grid deployment.
	Topology = grid.Topology
	// Transport is the pluggable network substrate contract: per-pair
	// FIFO delivery, caller-opened request/response exchanges, per-class
	// traffic accounting. Config.Transport selects the backend; nil means
	// the in-memory simulated network, NewTCPTransport gives real TCP.
	Transport = transport.Transport
	// Class partitions accounted traffic (application, DGC, futures).
	Class = transport.Class
	// Counters is a per-class traffic snapshot (Env.Network().Snapshot()).
	Counters = transport.Counters
	// SimConfig parameterizes the in-memory transport backend: its
	// latency model, MaxComm and reachability rules.
	SimConfig = simnet.Config
	// SimTransport is the in-memory Transport implementation.
	SimTransport = simnet.Network
	// TCPConfig parameterizes the TCP transport backend.
	TCPConfig = tcpnet.Config
	// TCPTransport is the TCP Transport implementation: one process's
	// listener plus its persistent per-pair connections. Its Addr and
	// AddPeer methods wire multi-process deployments together.
	TCPTransport = tcpnet.Network
	// Service is a typed method registry implementing Behavior.
	Service = active.Service
	// ServiceMethod is one declared, typed operation of a Service.
	ServiceMethod = active.ServiceMethod
	// CallOption is a per-call option of the typed API (WithTimeout,
	// WithNoReply).
	CallOption = active.CallOption
	// FutureID identifies a future on its home node; futures are
	// first-class wire citizens (paper §5–§6), so the identity is global.
	FutureID = ids.FutureID
	// FutureRef is the wire identity a first-class future travels under
	// when passed in call arguments, results or group scatters. Receive
	// one in a request struct field and lift it with Context.Future (or
	// FutureFor for the typed form) to wait-by-necessity at the activity
	// that finally touches the value.
	FutureRef = wire.FutureRef
	// ServicePolicy selects which pending request an activity serves next
	// (FIFO, LIFO, PriorityByMethod, ServeOldest, or your own).
	ServicePolicy = active.ServicePolicy
	// RequestInfo describes one pending request to a ServicePolicy.
	RequestInfo = active.RequestInfo
	// SpawnOption configures an activity at creation (WithPolicy).
	SpawnOption = active.SpawnOption
	// ClusterConfig enables the elastic cluster runtime of an environment
	// (Config.Cluster): membership with seed bootstrap and join/leave,
	// failure detection piggybacked on DGC heartbeat traffic, and crash
	// cleanup (ErrNodeDead fan-out to pending futures, fast-fail routing).
	ClusterConfig = active.ClusterConfig
	// Member is one entry of the cluster membership view
	// (Env.ClusterMembers): node, hosting process address, health state.
	Member = active.Member
	// NodeState is a member's health as seen from this process: alive,
	// suspect, dead (tombstone) or left (graceful tombstone).
	NodeState = cluster.State
	// Store is the pluggable checkpoint store contract (Config.Store):
	// a durable map from activity identity to its latest checkpoint
	// payload. NewFileStore gives the crash-tolerant file backend,
	// NewMemStore the in-memory one for tests.
	Store = store.Store
	// FileStore is the file-backed Store: per-node append-only logs with
	// CRC-protected record framing (WIRE.md §11), atomic segment rotation
	// and background compaction. Replay after a crash keeps the longest
	// valid prefix of each log.
	FileStore = store.FileStore
	// MemStore is the in-memory Store used by tests and the restart
	// chaos arm of the load generator.
	MemStore = store.MemStore
)

// Generic aliases of the typed calling surface.
type (
	// Stub is a typed, single-method view of a Handle.
	Stub[Req, Resp any] = active.Stub[Req, Resp]
	// TypedFuture resolves to an unmarshaled Resp.
	TypedFuture[Resp any] = active.TypedFuture[Resp]
	// Group is a typed one-to-many handle (Broadcast/Scatter).
	Group[Req, Resp any] = active.Group[Req, Resp]
	// FutureGroup collects the futures of one group fan-out.
	FutureGroup[Resp any] = active.FutureGroup[Resp]
)

// Sentinel errors of the calling API (check with errors.Is).
var (
	// ErrHandleReleased reports a call through a released handle.
	ErrHandleReleased = active.ErrHandleReleased
	// ErrUnknownMethod reports a method a Service does not declare.
	ErrUnknownMethod = active.ErrUnknownMethod
	// ErrGroupArity reports a Scatter arity mismatch.
	ErrGroupArity = active.ErrGroupArity
	// ErrEmptyGroup reports a group operation on zero members.
	ErrEmptyGroup = active.ErrEmptyGroup
	// ErrFutureTimeout reports that a Wait gave up.
	ErrFutureTimeout = active.ErrFutureTimeout
	// ErrRemoteFailure wraps an error returned by a callee's behavior.
	ErrRemoteFailure = active.ErrRemoteFailure
	// ErrFutureUnavailable reports a first-class future whose value can no
	// longer be obtained (its home entry was reclaimed).
	ErrFutureUnavailable = active.ErrFutureUnavailable
	// ErrNotAFuture reports a value that should have been a future.
	ErrNotAFuture = active.ErrNotAFuture
	// ErrNotMigratable reports a migration attempt on an activity that was
	// not created from a registered behavior kind.
	ErrNotMigratable = active.ErrNotMigratable
	// ErrUnknownBehaviorKind reports a migration toward a process that
	// never registered the activity's behavior kind.
	ErrUnknownBehaviorKind = active.ErrUnknownBehaviorKind
	// ErrMigrationFailed wraps a destination-side migration failure; the
	// activity keeps serving at its old home.
	ErrMigrationFailed = active.ErrMigrationFailed
	// ErrNodeDead reports an operation against a node the cluster declared
	// failed: new sends toward it fail fast and the futures it owed
	// results resolve to this error instead of hanging.
	ErrNodeDead = active.ErrNodeDead
	// ErrRecovered resolves the futures of requests that were pending
	// inside a checkpoint when the activity was recovered: the runtime
	// never replays checkpointed requests (at-most-once, DESIGN.md §9),
	// it fails them so callers can retry idempotently.
	ErrRecovered = active.ErrRecovered
	// ErrNoStore reports a checkpoint or recovery attempt on an
	// environment whose Config.Store is nil.
	ErrNoStore = active.ErrNoStore
	// ErrNotDurable reports a checkpoint attempt on an activity without a
	// registered behavior kind; like migration, durability rides on the
	// kind registry to re-instantiate behaviors after a crash.
	ErrNotDurable = active.ErrNotDurable
)

// Method declares a typed service operation; see active.Method.
func Method[Req, Resp any](name string, fn func(ctx *Context, req Req) (Resp, error)) ServiceMethod {
	return active.Method(name, fn)
}

// NewService builds a Service from typed method descriptors.
func NewService(methods ...ServiceMethod) *Service {
	return active.NewService(methods...)
}

// NewStub types the given handle's method.
func NewStub[Req, Resp any](h *Handle, method string) Stub[Req, Resp] {
	return active.NewStub[Req, Resp](h, method)
}

// NewGroup types the given handles' method into a one-to-many group.
func NewGroup[Req, Resp any](method string, members ...*Handle) *Group[Req, Resp] {
	return active.NewGroup[Req, Resp](method, members...)
}

// CallTyped performs a typed asynchronous call from inside a behavior.
func CallTyped[Resp any](ctx *Context, target Value, method string, req any, opts ...CallOption) (*TypedFuture[Resp], error) {
	return active.CallTyped[Resp](ctx, target, method, req, opts...)
}

// SendTyped performs a typed one-way call from inside a behavior.
func SendTyped(ctx *Context, target Value, method string, req any) error {
	return active.SendTyped(ctx, target, method, req)
}

// WithTimeout sets a per-call default wait budget.
func WithTimeout(d time.Duration) CallOption { return active.WithTimeout(d) }

// WithNoReply turns a call into a fire-and-forget send.
func WithNoReply() CallOption { return active.WithNoReply() }

// FutureFor lifts a first-class future value into a typed future on the
// context's node: wait-by-necessity at the activity that finally touches
// the value.
func FutureFor[Resp any](ctx *Context, v Value) (*TypedFuture[Resp], error) {
	return active.FutureFor[Resp](ctx, v)
}

// Typed wraps an untyped Future (e.g. from Handle.Future) in a typed view.
func Typed[Resp any](fut *Future) *TypedFuture[Resp] { return active.Typed[Resp](fut) }

// Service policies: the request-selection disciplines of the serve loop
// (paper §5–§6 serve primitives). Configure per activity via WithPolicy
// (per kind through RegisterBehavior's options), or serve selectively
// mid-service with Context.ServeNext.

// FIFO returns the default arrival-order policy.
func FIFO() ServicePolicy { return active.FIFO() }

// LIFO returns the newest-first policy.
func LIFO() ServicePolicy { return active.LIFO() }

// PriorityByMethod returns a policy serving the highest-priority method
// first (FIFO within equal priorities; unlisted methods have priority 0).
func PriorityByMethod(prio map[string]int) ServicePolicy { return active.PriorityByMethod(prio) }

// ServeOldest returns the paper's serveOldest primitive: the oldest
// pending request among the given methods; everything else is held.
func ServeOldest(methods ...string) ServicePolicy { return active.ServeOldest(methods...) }

// WithPolicy sets one activity's standing service policy at creation.
func WithPolicy(p ServicePolicy) SpawnOption { return active.WithPolicy(p) }

// Live activity migration (WIRE.md §7). An activity created from a
// registered behavior kind can move between nodes — same process or
// another one over TCP — with Handle.Migrate / Context.MigrateTo. Its
// state (Context.Store entries), pending request queue and first-class
// futures follow it; a forwarder under the old identity relays requests,
// answers DGC heartbeats and pushes redirects (one-pair directory
// announces) until every holder has rebound to the new reference, then
// reclaims itself through the ordinary TTA sweep. See examples/migration for the end-to-end shape.

// RegisterBehavior registers a migratable behavior kind: the factory (and
// spawn options, e.g. WithPolicy) every instance is created with — at
// Node.SpawnKind and again at every migration destination. The registry
// is process-global, so processes sharing a TCP deployment register the
// same kinds and activities migrate freely between them.
func RegisterBehavior(kind string, factory func() Behavior, opts ...SpawnOption) {
	active.RegisterBehavior(kind, factory, opts...)
}

// WithKind tags an activity with a registered behavior kind at creation,
// making it migratable (Node.SpawnKind applies it automatically).
func WithKind(kind string) SpawnOption { return active.WithKind(kind) }

// Durable activities (WIRE.md §11, DESIGN.md §9). An activity created
// from a registered behavior kind can be checkpointed to a Store
// (Config.Store): its state, registered names and pending request queue
// are captured between services and persisted under its identity.
// Checkpoints are taken explicitly (Handle.Checkpoint, Context.Checkpoint)
// or on a cadence (Config.CheckpointEvery). After a crash, Env.Recover
// re-instantiates every checkpointed activity under its old identity,
// re-registers its names, and fails the checkpointed in-flight requests
// with ErrRecovered — requests are never replayed (at-most-once). With
// Config.Cluster.Failover enabled, the lowest-ID surviving member adopts a
// dead node's checkpoints under new identities and announces the
// relocations to every member process, so names and old references keep
// resolving. See examples/durability.

// NewFileStore opens the file-backed checkpoint store rooted at dir:
// per-node append-only logs with CRC-protected records, atomic segment
// rotation and compaction. Replaying an existing dir restores the longest
// valid prefix of each log, so a torn final write costs at most the last
// checkpoint, never the log.
func NewFileStore(dir string) (*FileStore, error) { return store.NewFileStore(dir) }

// NewMemStore returns an in-memory checkpoint store for tests and
// single-process experiments.
func NewMemStore() *MemStore { return store.NewMemStore() }

// Marshal maps a Go value onto the closed wire value model.
func Marshal(v any) (Value, error) { return wire.Marshal(v) }

// Unmarshal maps a wire value back onto a Go value.
func Unmarshal(v Value, out any) error { return wire.Unmarshal(v, out) }

// Termination reasons (see internal/core).
const (
	// ReasonAcyclic is a TTA-expiry (reference-listing) termination.
	ReasonAcyclic = core.ReasonAcyclic
	// ReasonCyclic is a cyclic-consensus termination.
	ReasonCyclic = core.ReasonCyclic
	// ReasonNotified is a dying-wave (§4.3) termination.
	ReasonNotified = core.ReasonNotified
)

// Traffic classes of the accounting counters (see internal/transport).
const (
	// ClassApp is application traffic: requests and their payloads.
	ClassApp = transport.ClassApp
	// ClassDGC is DGC messages and DGC responses.
	ClassDGC = transport.ClassDGC
	// ClassFuture is future-update traffic (results flowing back).
	ClassFuture = transport.ClassFuture
	// ClassCluster is membership and failure-detection traffic (join and
	// lease exchanges, gossip, suspect-path probes).
	ClassCluster = transport.ClassCluster
)

// Member health states of the cluster failure detector (Env.NodeHealth,
// Member.State).
const (
	// NodeUnknown: the node is not tracked by this process.
	NodeUnknown = cluster.StateUnknown
	// NodeAlive: recent contact observed.
	NodeAlive = cluster.StateAlive
	// NodeSuspect: silent or failing beyond SuspectAfter; being probed.
	NodeSuspect = cluster.StateSuspect
	// NodeDead: declared failed (final; identifiers are never reused).
	NodeDead = cluster.StateDead
	// NodeLeft: departed gracefully via Node.Leave (final).
	NodeLeft = cluster.StateLeft
)

// NewSimTransport creates an in-memory substrate with cfg's latency model
// and MaxComm; put it in Config.Transport:
//
//	topo := repro.Grid5000()
//	tr := repro.NewSimTransport(repro.SimConfig{Latency: topo.Latency, MaxComm: topo.MaxComm()})
//	env := repro.NewEnv(repro.Config{Transport: tr})
//
// The environment owns the transport and closes it in Env.Close.
func NewSimTransport(cfg SimConfig) *SimTransport {
	return simnet.New(cfg)
}

// NewTCPTransport creates the real-network substrate: a TCP listener for
// this process's nodes plus persistent, FIFO, per-(source, destination)
// connections to every peer. Put the result in Config.Transport and the
// runtime — calls, futures, the complete DGC — runs unchanged across
// processes and machines:
//
//	tr, err := repro.NewTCPTransport(repro.TCPConfig{Listen: ":7000"})
//	env := repro.NewEnv(repro.Config{Transport: tr, FirstNode: 100})
//
// Processes sharing a deployment give each other disjoint Config.FirstNode
// ranges and exchange listener addresses via AddPeer.
// The environment owns the transport and closes it in Env.Close.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	return tcpnet.New(cfg)
}

// NewEnv creates an environment. The zero Config gives a single-site,
// zero-latency system with TTB = 30ms and a conforming TTA (the paper's
// parameters compressed ×1000).
func NewEnv(cfg Config) *Env {
	return active.NewEnv(cfg)
}

// Grid5000 returns the paper's §5.1 testbed topology (128 nodes on three
// sites with the measured RTTs); pass Topology.Latency and
// Topology.MaxComm in a SimConfig to deploy on it (NewSimTransport), and
// use Topology.Scaled for laptop-scale variants.
func Grid5000() *Topology {
	return grid.Grid5000()
}

// Value constructors, re-exported from the wire model.

// Null returns the null value.
func Null() Value { return wire.Null() }

// Bool returns a boolean value.
func Bool(v bool) Value { return wire.Bool(v) }

// Int returns an integer value.
func Int(v int64) Value { return wire.Int(v) }

// Float returns a floating-point value.
func Float(v float64) Value { return wire.Float(v) }

// String returns a string value.
func String(v string) Value { return wire.String(v) }

// Bytes returns a byte-blob value.
func Bytes(v []byte) Value { return wire.Bytes(v) }

// Floats packs a []float64 into a blob value.
func Floats(v []float64) Value { return wire.Floats(v) }

// List returns a list value.
func List(elems ...Value) Value { return wire.List(elems...) }

// Dict returns a dictionary value.
func Dict(m map[string]Value) Value { return wire.Dict(m) }

// Ref returns a reference value designating an activity.
func Ref(target ActivityID) Value { return wire.Ref(target) }

// FutureVal returns a first-class future value from its wire identity
// (the dynamic-API counterpart of marshaling a *Future or *TypedFuture).
func FutureVal(fr FutureRef) Value { return wire.FutureVal(fr) }

// Compressed defaults used when Config leaves the periods zero.
const (
	// DefaultTTB is the default heartbeat period (the paper's 30s, ×1000).
	DefaultTTB = 30 * time.Millisecond
	// DefaultTTA is the default TimeToAlone conforming to the §3.1 formula.
	DefaultTTA = 75 * time.Millisecond
	// DefaultBatchWindow is a good batching window for throughput-bound
	// deployments (Config.BatchWindow; zero keeps batching off). Only
	// plain one-way sends ever wait this long — requests, replies and
	// group fan-outs are written when their sender blocks (WIRE.md §5).
	DefaultBatchWindow = 200 * time.Microsecond
)
