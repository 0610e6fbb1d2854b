package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/active"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// Mix weights the workload's operation classes. Zero-valued mixes default
// to calls only.
type Mix struct {
	// Call is the weight of single typed request/reply round-trips.
	Call int `json:"call"`
	// Broadcast is the weight of group fan-outs (Broadcast + WaitAll).
	Broadcast int `json:"broadcast"`
	// Churn is the weight of DGC churn: spawn an activity, call it once,
	// release it into the collector's hands.
	Churn int `json:"churn"`
	// Pipeline is the weight of chained forwarded-future calls: one
	// request into a 4-stage chain where every stage forwards the
	// downstream future instead of waiting (WIRE.md §6), resolved only at
	// the caller.
	Pipeline int `json:"pipeline"`
	// Migrate is the weight of live-migration lifecycles: spawn a
	// migratable activity, call it, migrate it to another node, and call
	// it again through the now-stale handle — the forwarder, redirect and
	// sharded-directory paths all under load (WIRE.md §7, §9).
	Migrate int `json:"migrate,omitempty"`
	// Send is the weight of one-way pings: fire-and-forget typed sends
	// with a synchronous barrier every SendWindow-th operation, so the
	// serve side provably keeps pace with the enqueue side. This is the
	// asynchronous-messaging floor of the runtime — the rate one core can
	// push requests through marshal, queue and serve without waiting for
	// replies.
	Send int `json:"send,omitempty"`
}

func (m Mix) normalized() Mix {
	if m.Call <= 0 && m.Broadcast <= 0 && m.Churn <= 0 && m.Pipeline <= 0 && m.Migrate <= 0 && m.Send <= 0 {
		return Mix{Call: 1}
	}
	return m
}

// Config parameterizes one load-generation run.
type Config struct {
	// Name labels the scenario in suite documents; the perf comparator
	// matches named scenarios by name instead of (backend, batching).
	Name string `json:"name,omitempty"`
	// Backend selects the substrate: "sim" (in-memory) or "tcp" (real
	// loopback TCP). Defaults to "sim".
	Backend string `json:"backend"`
	// Nodes is the number of worker nodes hosting echo actors (the caller
	// runs on its own extra node). Defaults to 4.
	Nodes int `json:"nodes"`
	// ActorsPerNode is the number of echo activities per worker node.
	// Defaults to 4.
	ActorsPerNode int `json:"actors_per_node"`
	// GroupSize is the fan-out width of broadcast operations. Defaults to
	// min(16, total actors).
	GroupSize int `json:"group_size"`
	// Workers is the closed-loop concurrency (ignored in open loop).
	// Defaults to 2×GOMAXPROCS.
	Workers int `json:"workers"`
	// RatePerSec switches to open-loop arrival at that rate: operations
	// are launched on schedule regardless of completions (the arrival
	// process of a public service), and latency includes any queueing the
	// system builds up. 0 keeps the closed loop.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Duration is the measured run length. Defaults to 2s.
	Duration time.Duration `json:"-"`
	// Mix weights the operation classes.
	Mix Mix `json:"mix"`
	// PayloadBytes sizes the opaque payload carried by calls and
	// broadcasts. Defaults to 64.
	PayloadBytes int `json:"payload_bytes"`
	// BatchWindow configures the runtime's batching path
	// (Config.BatchWindow of the runtime; zero = batching off).
	BatchWindow time.Duration `json:"-"`
	// DisableDGC turns the collector off to isolate the messaging path.
	DisableDGC bool `json:"disable_dgc,omitempty"`
	// DropConnsEvery, when positive on the tcp backend, forcibly drops
	// every established connection at that period — the soak harness's
	// transient-failure chaos.
	DropConnsEvery time.Duration `json:"-"`
	// ChurnBurst is the number of activities one churn operation spawns
	// before calling one of them and releasing the lot. Defaults to 1;
	// the scale scenario raises it to reach its activity floor quickly.
	ChurnBurst int `json:"churn_burst,omitempty"`
	// MinActivities, when positive, keeps the closed loop running past
	// Duration until at least this many activities have been created
	// (base population + churn + migration + chaos lifecycles). The
	// 10^5-activity scale scenario is gated on this floor.
	MinActivities uint64 `json:"min_activities,omitempty"`
	// NetPerMessage models fixed per-message interface overhead on the
	// sim backend (simnet.Config.PerMessage): messages serialize at each
	// node's tx and rx interface, the packet-rate bottleneck a real
	// deployment has. Zero leaves interfaces infinitely fast. Ignored on
	// tcp, whose overhead is real.
	NetPerMessage time.Duration `json:"net_per_message,omitempty"`
	// NetPerByte models finite interface bandwidth on the sim backend
	// (simnet.Config.PerByte).
	NetPerByte time.Duration `json:"net_per_byte,omitempty"`
	// Cluster enables the elastic cluster runtime (membership, failure
	// detection) for the run. Implied by NodeKillEvery.
	Cluster bool `json:"cluster,omitempty"`
	// RestartEvery, when positive on the sim backend, runs crash-restart
	// chaos at that period: a dedicated durable node hosting registered,
	// checkpointed actors is hard-killed (network blackholed, runtime
	// reaped mid-traffic) and brought back through Env.Recover, after
	// which every registered identity must answer again — the
	// zero-lost-registered-identities invariant the churn-restart
	// scenario is gated on. Implies a checkpoint store for the run.
	RestartEvery time.Duration `json:"-"`
	// NodeKillEvery, when positive, runs node churn chaos at that period:
	// a fresh node joins the cluster, hosts an activity, serves one call,
	// and then dies — hard-killed at the network level on the sim backend
	// (exercising failure detection and ErrNodeDead cleanup), crashed on
	// tcp. The steady-state workload must ride through undisturbed.
	NodeKillEvery time.Duration `json:"-"`
	// SendWindow bounds the one-way send lane's outstanding window: each
	// worker fires SendWindow-1 fire-and-forget pings at its designated
	// actor and then makes one synchronous ping, which cannot complete
	// until the actor has served everything queued before it (FIFO per
	// sender). Defaults to 256.
	SendWindow int `json:"send_window,omitempty"`
	// Colocate anchors the send lane's stubs on the actor-owning nodes, so
	// one-way pings take the intra-node direct path instead of crossing
	// the transport: the scenario that measures the runtime's messaging
	// floor rather than the substrate's. Other lanes always cross the
	// transport.
	Colocate bool `json:"colocate,omitempty"`
	// OpTimeout bounds one operation's wait (a lost future update, e.g.
	// under connection chaos, then counts as an error instead of wedging a
	// worker). Defaults to 30s.
	OpTimeout time.Duration `json:"-"`
	// Seed makes operation interleaving reproducible.
	Seed int64 `json:"seed"`
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = "sim"
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.ActorsPerNode <= 0 {
		c.ActorsPerNode = 4
	}
	total := c.Nodes * c.ActorsPerNode
	if c.GroupSize <= 0 || c.GroupSize > total {
		c.GroupSize = total
		if c.GroupSize > 16 {
			c.GroupSize = 16
		}
	}
	if c.Workers <= 0 {
		c.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 64
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.ChurnBurst <= 0 {
		c.ChurnBurst = 1
	}
	if c.SendWindow <= 0 {
		c.SendWindow = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NodeKillEvery > 0 {
		c.Cluster = true
	}
	c.Mix = c.Mix.normalized()
	return c
}

// OpStats aggregates one operation class.
type OpStats struct {
	// Ops is the number of completed operations.
	Ops uint64 `json:"ops"`
	// Errors is the number of failed operations.
	Errors uint64 `json:"errors"`
	// Latency digests the class's latency histogram.
	Latency LatencySummary `json:"latency"`
}

// ClassTraffic is the accounted traffic of one transport class.
type ClassTraffic struct {
	// Bytes is the total accounted payload bytes.
	Bytes uint64 `json:"bytes"`
	// Messages is the number of accounted payloads.
	Messages uint64 `json:"messages"`
}

// Result is the machine-readable outcome of one run.
type Result struct {
	// Config echoes the effective configuration.
	Config Config `json:"config"`
	// OpenLoop records whether arrival was open-loop.
	OpenLoop bool `json:"open_loop"`
	// Batched records whether the batching path was enabled.
	Batched bool `json:"batched"`
	// BatchWindowMicros is the batching window in microseconds (0 = off).
	BatchWindowMicros int64 `json:"batch_window_us"`
	// DurationSeconds is the measured wall time.
	DurationSeconds float64 `json:"duration_s"`
	// TotalOps counts completed operations across classes.
	TotalOps uint64 `json:"total_ops"`
	// Throughput is completed operations per second.
	Throughput float64 `json:"throughput_ops_per_s"`
	// MessagesPerSec is accounted transport messages per second.
	MessagesPerSec float64 `json:"messages_per_s"`
	// Calls, Broadcasts, Churns, Pipelines, Migrates and Sends digest the
	// per-class measurements.
	Calls      OpStats `json:"calls"`
	Broadcasts OpStats `json:"broadcasts"`
	Churns     OpStats `json:"churns"`
	Pipelines  OpStats `json:"pipelines"`
	Migrates   OpStats `json:"migrates"`
	Sends      OpStats `json:"sends"`
	// LostReplies counts operations whose reply never arrived (the wait
	// hit OpTimeout): the zero-lost-replies invariant the scale scenario
	// is gated on. Fast failures (e.g. ErrNodeDead) are ordinary errors,
	// not lost replies.
	LostReplies uint64 `json:"lost_replies"`
	// ActivitiesCreated is the total number of activities this run
	// brought to life: base population, churn spawns, migration subjects
	// and chaos-lifecycle victims.
	ActivitiesCreated uint64 `json:"activities_created"`
	// Traffic maps transport class names to accounted totals.
	Traffic map[string]ClassTraffic `json:"traffic"`
	// LiveActivities is the live count at the end (churn backlog the DGC
	// still owes).
	LiveActivities int `json:"live_activities"`
	// NodeKills is how many chaos node lifecycles (join, serve, die) ran.
	NodeKills uint64 `json:"node_kills,omitempty"`
	// Restarts is how many crash-restart chaos cycles (kill the durable
	// node, recover it from its checkpoints) completed.
	Restarts uint64 `json:"restarts,omitempty"`
	// LostIdentities counts registered durable identities that failed to
	// answer after a crash-restart cycle — the churn-restart scenario is
	// gated on this staying zero.
	LostIdentities uint64 `json:"lost_identities,omitempty"`
	// CollectedActivities is how many the DGC reclaimed during the run.
	CollectedActivities int `json:"collected_activities"`
}

// echoReq/echoResp are the workload's wire shapes.
type echoReq struct {
	Seq     int64  `wire:"seq"`
	Payload []byte `wire:"payload"`
}

type echoResp struct {
	Seq  int64 `wire:"seq"`
	Echo int64 `wire:"echo"`
}

// opKind indexes the per-worker stats.
type opKind int

const (
	opCall opKind = iota
	opBroadcast
	opChurn
	opPipeline
	opMigrate
	opSend
	numOps
)

// workerStats is one worker's (or one open-loop shard's) private tally.
type workerStats struct {
	hist   [numOps]histogram
	ops    [numOps]uint64
	errors [numOps]uint64
	lost   [numOps]uint64
	// The send lane's per-worker state: the designated ping stub (each
	// worker hammers one actor so the windowed barrier truly bounds that
	// actor's backlog) and the one-way sends since the last barrier.
	sendStub *active.Stub[int64, int64]
	pending  int
}

// echoKind is the registered behavior kind behind the migrate workload:
// migration re-instantiates the behavior from the process-global registry
// at the destination, so the kind registers once per process.
const echoKind = "loadgen/echo"

var registerEchoKind = sync.OnceFunc(func() {
	active.RegisterBehavior(echoKind, func() active.Behavior {
		return echoService()
	})
})

// echoService is the workload behavior: the struct echo the call lanes
// round-trip, plus the scalar ping the one-way send lane fires.
func echoService() *active.Service {
	return active.NewService(
		active.Method("echo", func(_ *active.Context, req echoReq) (echoResp, error) {
			return echoResp{Seq: req.Seq, Echo: int64(len(req.Payload))}, nil
		}),
		active.Method("ping", func(_ *active.Context, v int64) (int64, error) {
			return v, nil
		}))
}

// Run executes one load-generation run and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	registerEchoKind()
	// The closed loop saturates every core, so liveness timing must not
	// sit at the runtime's low-latency defaults (TTB 30ms, TTA ~100ms,
	// death after ~165ms of silence): a driver goroutine starved for one
	// scheduling hiccup would stop heartbeating long enough for its
	// referenced actors to self-collect, or for the failure detector to
	// declare a live node dead and purge its reference edges. Pace the
	// beats and windows for a loaded deployment; explicit release-edge
	// removal (the churn reclamation path) is unaffected by TTA.
	envCfg := active.Config{
		TTB:         100 * time.Millisecond,
		TTA:         time.Second,
		DisableDGC:  cfg.DisableDGC,
		BatchWindow: cfg.BatchWindow,
		Cluster: active.ClusterConfig{
			Enabled:      cfg.Cluster,
			SuspectAfter: 500 * time.Millisecond,
			DeadAfter:    500 * time.Millisecond,
		},
	}
	if cfg.RestartEvery > 0 {
		if cfg.Backend != "sim" {
			return Result{}, fmt.Errorf("loadgen: restart chaos needs the sim backend (KillNode/ReviveNode hooks)")
		}
		// The restart arm needs somewhere durable to recover from; the
		// cadence keeps the actors freshly checkpointed between kills.
		envCfg.Store = store.NewMemStore()
		envCfg.CheckpointEvery = 25 * time.Millisecond
	}
	var dropper interface{ DropConnections() }
	switch cfg.Backend {
	case "sim":
		if cfg.NetPerMessage > 0 || cfg.NetPerByte > 0 {
			envCfg.Transport = simnet.New(simnet.Config{
				PerMessage: cfg.NetPerMessage,
				PerByte:    cfg.NetPerByte,
			})
		}
	case "tcp":
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			return Result{}, err
		}
		envCfg.Transport = tr
		dropper = tr
	default:
		return Result{}, fmt.Errorf("loadgen: unknown backend %q", cfg.Backend)
	}
	env := active.NewEnv(envCfg)
	defer env.Close()

	// Topology: one caller node plus worker nodes full of echo actors;
	// the caller re-anchors a handle per actor so every operation crosses
	// the transport.
	caller := env.NewNode()
	svc := echoService()
	workerNodes := make([]*active.Node, cfg.Nodes)
	for i := range workerNodes {
		workerNodes[i] = env.NewNode()
	}
	var stubs []active.Stub[echoReq, echoResp]
	var pingStubs []active.Stub[int64, int64]
	var handles []*active.Handle
	for ni, n := range workerNodes {
		for a := 0; a < cfg.ActorsPerNode; a++ {
			local := n.NewActive(fmt.Sprintf("echo-%d-%d", ni, a), svc)
			defer local.Release()
			remote, err := caller.HandleFor(local.Ref())
			if err != nil {
				return Result{}, err
			}
			defer remote.Release()
			handles = append(handles, remote)
			stubs = append(stubs, active.NewStub[echoReq, echoResp](remote, "echo"))
			// The send lane optionally stays on the owning node: colocated
			// pings take the intra-node direct path, measuring the
			// runtime's own messaging floor.
			pingHandle := remote
			if cfg.Colocate {
				pingHandle = local
			}
			pingStubs = append(pingStubs, active.NewStub[int64, int64](pingHandle, "ping"))
		}
	}
	group := active.NewGroup[echoReq, echoResp]("echo", handles[:cfg.GroupSize]...)

	// The forwarded-future pipeline: a 4-stage chain spread across the
	// worker nodes. Every non-final stage calls downstream and returns
	// the unresolved future; the caller's single wait resolves through
	// the flattened chain.
	const pipeStages = 4
	stageSvc := active.NewService(
		active.Method("wire", func(ctx *active.Context, next wire.Value) (struct{}, error) {
			ctx.Store("next", next)
			return struct{}{}, nil
		}),
		active.Method("pipe", func(ctx *active.Context, req echoReq) (wire.Value, error) {
			next := ctx.Load("next")
			if next.IsNull() {
				resp, err := wire.Marshal(echoResp{Seq: req.Seq, Echo: int64(len(req.Payload))})
				return resp, err
			}
			fut, err := active.CallTyped[echoResp](ctx, next, "pipe", req)
			if err != nil {
				return wire.Null(), err
			}
			return wire.Marshal(fut)
		}))
	stageHandles := make([]*active.Handle, pipeStages)
	for i := range stageHandles {
		stageHandles[i] = workerNodes[i%len(workerNodes)].NewActive(
			fmt.Sprintf("pipe-stage-%d", i), stageSvc)
		defer stageHandles[i].Release()
	}
	for i, h := range stageHandles {
		next := wire.Null()
		if i < pipeStages-1 {
			next = stageHandles[i+1].Ref()
		}
		if _, err := h.CallSync("wire", next, 10*time.Second); err != nil {
			return Result{}, err
		}
	}
	pipeHead, err := caller.HandleFor(stageHandles[0].Ref())
	if err != nil {
		return Result{}, err
	}
	defer pipeHead.Release()
	pipeStub := active.NewStub[echoReq, echoResp](pipeHead, "pipe")

	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	mix := cfg.Mix
	weightTotal := mix.Call + mix.Broadcast + mix.Churn + mix.Pipeline + mix.Migrate + mix.Send

	// created counts every activity this run brings to life; the scale
	// scenario's closed loop keeps running until it crosses
	// cfg.MinActivities.
	var created atomic.Uint64
	created.Add(uint64(len(handles) + pipeStages))

	var seq atomic.Int64
	churnNode := func(rng *rand.Rand) *active.Node {
		return workerNodes[rng.Intn(len(workerNodes))]
	}
	runOp := func(rng *rand.Rand, st *workerStats) {
		k := opCall
		switch w := rng.Intn(weightTotal); {
		case w < mix.Call:
			k = opCall
		case w < mix.Call+mix.Broadcast:
			k = opBroadcast
		case w < mix.Call+mix.Broadcast+mix.Churn:
			k = opChurn
		case w < mix.Call+mix.Broadcast+mix.Churn+mix.Pipeline:
			k = opPipeline
		case w < mix.Call+mix.Broadcast+mix.Churn+mix.Pipeline+mix.Migrate:
			k = opMigrate
		default:
			k = opSend
		}
		if k == opSend {
			// The asynchronous-messaging lane: SendWindow-1 fire-and-forget
			// pings at this worker's designated actor, then one synchronous
			// ping. FIFO per sender means the barrier's reply proves every
			// one-way before it was served, so a throughput figure from this
			// lane counts messages the serve side actually kept up with —
			// while bounding the actor's queue to one window.
			if st.sendStub == nil {
				s := pingStubs[rng.Intn(len(pingStubs))]
				st.sendStub = &s
			}
			start := time.Now()
			var err error
			if st.pending+1 >= cfg.SendWindow {
				_, err = st.sendStub.CallSync(int64(st.pending), cfg.OpTimeout)
				st.pending = 0
			} else {
				err = st.sendStub.Send(int64(st.pending))
				st.pending++
			}
			if err != nil {
				st.errors[opSend]++
				if errors.Is(err, active.ErrFutureTimeout) {
					st.lost[opSend]++
				}
				return
			}
			st.hist[opSend].record(time.Since(start))
			st.ops[opSend]++
			return
		}
		req := echoReq{Seq: seq.Add(1), Payload: payload}
		start := time.Now()
		var err error
		switch k {
		case opCall:
			_, err = stubs[rng.Intn(len(stubs))].CallSync(req, cfg.OpTimeout)
		case opBroadcast:
			var fg *active.FutureGroup[echoResp]
			if fg, err = group.Broadcast(req); err == nil {
				_, err = fg.WaitAll(cfg.OpTimeout)
			}
		case opChurn:
			// Spawn a burst, reference one, call it, release the lot: the
			// lifecycle that feeds the DGC a steady diet of fresh edges
			// and fresh garbage.
			hs := make([]*active.Handle, cfg.ChurnBurst)
			for i := range hs {
				hs[i] = churnNode(rng).NewActive("churn", svc)
			}
			created.Add(uint64(len(hs)))
			var hc *active.Handle
			if hc, err = caller.HandleFor(hs[rng.Intn(len(hs))].Ref()); err == nil {
				_, err = active.NewStub[echoReq, echoResp](hc, "echo").CallSync(req, cfg.OpTimeout)
				hc.Release()
			}
			for _, h := range hs {
				h.Release()
			}
		case opPipeline:
			// One item through the 4-stage forwarded-future chain: the
			// caller's single wait resolves through the flattening
			// machinery and every hop's future-update propagation.
			var resp echoResp
			if resp, err = pipeStub.CallSync(req, cfg.OpTimeout); err == nil && resp.Seq != req.Seq {
				err = fmt.Errorf("loadgen: pipeline echoed seq %d, want %d", resp.Seq, req.Seq)
			}
		case opMigrate:
			// One live-migration lifecycle: spawn a migratable activity,
			// call it, move it to another node, then call it again through
			// the stale handle — the forwarder, redirect and
			// sharded-directory machinery under load.
			src := workerNodes[rng.Intn(len(workerNodes))]
			dst := workerNodes[rng.Intn(len(workerNodes))]
			var h *active.Handle
			if h, err = src.SpawnKind("mig", echoKind); err == nil {
				created.Add(1)
				var hc *active.Handle
				if hc, err = caller.HandleFor(h.Ref()); err == nil {
					stub := active.NewStub[echoReq, echoResp](hc, "echo")
					if _, err = stub.CallSync(req, cfg.OpTimeout); err != nil {
						err = fmt.Errorf("pre-call: %w", err)
					} else {
						var mfut *active.Future
						if mfut, err = h.Migrate(dst.ID()); err != nil {
							err = fmt.Errorf("migrate: %w", err)
						} else if _, err = mfut.Wait(cfg.OpTimeout); err != nil {
							err = fmt.Errorf("mfut: %w", err)
						} else if _, err = stub.CallSync(req, cfg.OpTimeout); err != nil {
							err = fmt.Errorf("post-call: %w", err)
						}
					}
					hc.Release()
				}
				h.Release()
			}
		}
		if err != nil {
			// Failed operations count separately and stay out of the
			// latency digest: a timed-out call would otherwise both
			// inflate throughput and poison the tail percentiles. A
			// timeout specifically is a *lost reply* — the invariant the
			// scale scenario is gated on.
			st.errors[k]++
			if errors.Is(err, active.ErrFutureTimeout) {
				st.lost[k]++
			}
			return
		}
		st.hist[k].record(time.Since(start))
		st.ops[k]++
	}

	env.Network().ResetCounters()
	collectedBefore := env.Stats().Collected
	var collectedBeforeTotal int
	for _, c := range collectedBefore {
		collectedBeforeTotal += c
	}

	// The crash-restart arm's population: a dedicated node of registered,
	// checkpointed actors, each pinned by a caller-side stub that must
	// keep answering across every kill-and-recover cycle. The node is
	// dedicated so the steady-state lanes above never route through the
	// blackhole window.
	var durableNode *active.Node
	var durablePings []active.Stub[int64, int64]
	if cfg.RestartEvery > 0 {
		const durableActors = 8
		durableNode = env.NewNode()
		for i := 0; i < durableActors; i++ {
			h, err := durableNode.SpawnKind(fmt.Sprintf("durable-%d", i), echoKind)
			if err != nil {
				return Result{}, err
			}
			if err := env.RegisterName(fmt.Sprintf("durable-%d", i), h.Ref()); err != nil {
				return Result{}, err
			}
			// One acknowledged checkpoint up front: the first kill may land
			// before the cadence's first beat.
			fut, err := h.Checkpoint()
			if err != nil {
				return Result{}, err
			}
			if _, err := fut.Wait(cfg.OpTimeout); err != nil {
				return Result{}, err
			}
			hc, err := caller.HandleFor(h.Ref())
			if err != nil {
				return Result{}, err
			}
			defer hc.Release()
			durablePings = append(durablePings, active.NewStub[int64, int64](hc, "ping"))
			h.Release()
		}
		created.Add(durableActors)
	}

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	var nodeKills atomic.Uint64
	var restarts, lostIdentities atomic.Uint64
	if cfg.RestartEvery > 0 {
		killer, ok := env.Network().(*simnet.Network)
		if !ok {
			return Result{}, fmt.Errorf("loadgen: restart chaos needs the simnet transport")
		}
		durID := durableNode.ID()
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			t := time.NewTicker(cfg.RestartEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					// Machine failure: blackhole the node, reap its runtime,
					// then restart and recover from the checkpoint store.
					killer.KillNode(durID)
					durableNode.Crash()
					killer.ReviveNode(durID)
					// A partial recovery (decode error on one entry) still
					// restores the rest; the per-identity verification below
					// is the gate either way.
					_, _ = env.Recover()
					if n := env.Node(durID); n != nil {
						durableNode = n
					}
					// Every registered identity must answer again through the
					// stubs that predate the crash.
					deadline := time.Now().Add(10 * time.Second)
					for _, stub := range durablePings {
						ok := false
						for time.Now().Before(deadline) {
							if _, err := stub.CallSync(1, 250*time.Millisecond); err == nil {
								ok = true
								break
							}
						}
						if !ok {
							lostIdentities.Add(1)
						}
					}
					restarts.Add(1)
				}
			}
		}()
	}
	if cfg.NodeKillEvery > 0 {
		nodeKiller, _ := env.Network().(*simnet.Network)
		killCycle := func() {
			// One full elastic lifecycle: join a node, host an
			// activity, serve one call across the transport, die.
			victim := env.NewNode()
			h := victim.NewActive("chaos-victim", svc)
			created.Add(1)
			if hc, err := caller.HandleFor(h.Ref()); err == nil {
				req := echoReq{Seq: seq.Add(1), Payload: payload}
				_, _ = active.NewStub[echoReq, echoResp](hc, "echo").CallSync(req, cfg.OpTimeout)
				hc.Release()
			}
			h.Release()
			if nodeKiller != nil {
				// Hard kill first: the survivors' heartbeats toward
				// the victim now fail, driving the suspect→dead path
				// and the ErrNodeDead cleanup fan-out.
				nodeKiller.KillNode(victim.ID())
			}
			victim.Crash()
			nodeKills.Add(1)
		}
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			// One cycle up front: a short run on a starved single-CPU
			// scheduler may never see the first tick, and a chaos arm
			// that did nothing reads as a pass.
			killCycle()
			t := time.NewTicker(cfg.NodeKillEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					killCycle()
				}
			}
		}()
	}
	if dropper != nil && cfg.DropConnsEvery > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			t := time.NewTicker(cfg.DropConnsEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					dropper.DropConnections()
				}
			}
		}()
	}

	// The scale scenario's activity floor: the closed loop keeps issuing
	// operations past the duration until enough activities existed.
	more := func() bool {
		return cfg.MinActivities > 0 && created.Load() < cfg.MinActivities
	}

	start := time.Now()
	var statsList []*workerStats
	if cfg.RatePerSec > 0 {
		statsList = runOpenLoop(cfg, stop, runOp)
	} else {
		statsList = runClosedLoop(cfg, stop, more, runOp)
	}
	elapsed := time.Since(start)
	close(stop)
	chaosWG.Wait()

	// Merge the per-worker tallies.
	var merged workerStats
	var lostTotal uint64
	for _, st := range statsList {
		for k := opKind(0); k < numOps; k++ {
			merged.hist[k].merge(&st.hist[k])
			merged.ops[k] += st.ops[k]
			merged.errors[k] += st.errors[k]
			lostTotal += st.lost[k]
		}
	}
	snap := env.Network().Snapshot()

	res := Result{
		Config:            cfg,
		OpenLoop:          cfg.RatePerSec > 0,
		Batched:           cfg.BatchWindow > 0,
		BatchWindowMicros: int64(cfg.BatchWindow / time.Microsecond),
		DurationSeconds:   elapsed.Seconds(),
		Traffic:           make(map[string]ClassTraffic),
		LiveActivities:    env.LiveActivities(),
		NodeKills:         nodeKills.Load(),
		Restarts:          restarts.Load(),
		LostIdentities:    lostIdentities.Load(),
	}
	opStats := func(k opKind) OpStats {
		return OpStats{Ops: merged.ops[k], Errors: merged.errors[k], Latency: merged.hist[k].summary()}
	}
	res.Calls = opStats(opCall)
	res.Broadcasts = opStats(opBroadcast)
	res.Churns = opStats(opChurn)
	res.Pipelines = opStats(opPipeline)
	res.Migrates = opStats(opMigrate)
	res.Sends = opStats(opSend)
	res.LostReplies = lostTotal
	res.ActivitiesCreated = created.Load()
	res.TotalOps = merged.ops[opCall] + merged.ops[opBroadcast] + merged.ops[opChurn] +
		merged.ops[opPipeline] + merged.ops[opMigrate] + merged.ops[opSend]
	if elapsed > 0 {
		res.Throughput = float64(res.TotalOps) / elapsed.Seconds()
	}
	var msgs uint64
	for class, b := range snap.Bytes {
		msgs += snap.Messages[class]
		res.Traffic[class.String()] = ClassTraffic{Bytes: b, Messages: snap.Messages[class]}
	}
	if elapsed > 0 {
		res.MessagesPerSec = float64(msgs) / elapsed.Seconds()
	}
	var collectedTotal int
	for _, c := range env.Stats().Collected {
		collectedTotal += c
	}
	res.CollectedActivities = collectedTotal - collectedBeforeTotal
	return res, nil
}

// runClosedLoop drives Workers goroutines that each issue operations
// back-to-back until the duration elapses: the throughput-probe shape.
// When more reports outstanding work (the scale scenario's activity
// floor), workers keep going past the deadline — bounded by a hard stop
// so a wedged run fails the gate instead of hanging CI.
func runClosedLoop(cfg Config, stop <-chan struct{}, more func() bool, runOp func(*rand.Rand, *workerStats)) []*workerStats {
	deadline := time.Now().Add(cfg.Duration)
	hardStop := deadline.Add(2 * time.Minute)
	stats := make([]*workerStats, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		st := &workerStats{}
		stats[w] = st
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline) || (more() && now.Before(hardStop)); now = time.Now() {
				runOp(rng, st)
			}
		}()
	}
	wg.Wait()
	return stats
}

// runOpenLoop launches operations on an arrival schedule regardless of
// completions (bounded by a generous in-flight cap so a stalled system
// sheds load instead of leaking goroutines): the latency-under-rate
// shape. Shed arrivals are counted as errors of the call class.
func runOpenLoop(cfg Config, stop <-chan struct{}, runOp func(*rand.Rand, *workerStats)) []*workerStats {
	interval := time.Duration(float64(time.Second) / cfg.RatePerSec)
	if interval <= 0 {
		interval = time.Microsecond
	}
	const maxInFlight = 4096
	sem := make(chan struct{}, maxInFlight)
	deadline := time.Now().Add(cfg.Duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var mu sync.Mutex
	var stats []*workerStats
	var wg sync.WaitGroup
	var arrival atomic.Int64
	var shed uint64
	for time.Now().Before(deadline) {
		<-ticker.C
		select {
		case sem <- struct{}{}:
		default:
			shed++
			continue
		}
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			defer func() { <-sem }()
			st := &workerStats{}
			rng := rand.New(rand.NewSource(cfg.Seed + n))
			runOp(rng, st)
			mu.Lock()
			stats = append(stats, st)
			mu.Unlock()
		}(arrival.Add(1))
	}
	wg.Wait()
	if shed > 0 {
		st := &workerStats{}
		st.errors[opCall] += shed
		stats = append(stats, st)
	}
	return stats
}
