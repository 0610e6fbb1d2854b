// Package sim drives the core DGC state machines at paper scale on the
// deterministic discrete-event engine. Where internal/active runs real
// goroutines with real (scaled) time — exposing the implementation to true
// concurrency — sim models activities as scripted state machines over
// virtual time, which makes the 6 401-activity, 18 000-second torture run
// of Fig. 10 exact, fast and reproducible.
//
// The two harnesses share the algorithm: both drive internal/core
// collectors through the same five entry points (DESIGN.md §6).
package sim

import (
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ids"
)

// dgcEnvelopeBytes is the tag and count byte of the live runtime's
// one-message DGC envelope (WIRE.md §3). Traffic accounting charges each
// message and each response that envelope plus its record's encoded
// length, as the live runtime sends it when it beats each message on its
// own.
const dgcEnvelopeBytes = 2

// Config parameterizes a World.
type Config struct {
	// TTB and TTA are the DGC parameters (§3.1), in virtual time.
	TTB time.Duration
	TTA time.Duration
	// Latency is the one-way inter-node latency (nil = zero).
	Latency func(a, b ids.NodeID) time.Duration
	// Seed drives all randomness (beat phases, workload scripts).
	Seed int64
	// DisableConsensusPropagation ablates the §4.3 dying wave.
	DisableConsensusPropagation bool
	// Adaptive enables the §7.1 dynamic beat period.
	Adaptive core.Adaptive
	// MinHeightTree enables the §7.2 shallow-tree extension.
	MinHeightTree bool
	// SampleEvery is the sampling period of the idle/collected time
	// series (default: TTB).
	SampleEvery time.Duration
	// OnEvent receives collector trace events.
	OnEvent func(core.Event)
}

// Traffic is the accounted inter-node traffic of a run.
type Traffic struct {
	// DGCBytes counts DGC messages and responses.
	DGCBytes uint64
	// DGCMessages counts DGC message/response payloads.
	DGCMessages uint64
	// AppBytes counts application request payloads.
	AppBytes uint64
	// AppMessages counts application requests.
	AppMessages uint64
}

// Sample is one point of the Fig. 10 curves.
type Sample struct {
	// T is virtual time since the world started.
	T time.Duration
	// Idle is the number of live activities currently idle.
	Idle int
	// Collected is the cumulative number of terminated activities.
	Collected int
}

// World is one simulated distributed system.
type World struct {
	eng   *des.Engine
	cfg   Config
	start time.Time

	gens map[ids.NodeID]*ids.Generator
	acts map[ids.ActivityID]*Activity
	all  []*Activity

	collected int
	reasons   map[core.Reason]int
	traffic   Traffic
	samples   []Sample
	sampling  bool
	scratch   []byte // encodes DGC records to count their bytes
}

// NewWorld creates an empty world at virtual time zero.
func NewWorld(cfg Config) *World {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = cfg.TTB
	}
	start := time.Unix(0, 0)
	return &World{
		eng:     des.New(start, cfg.Seed),
		cfg:     cfg,
		start:   start,
		gens:    make(map[ids.NodeID]*ids.Generator),
		acts:    make(map[ids.ActivityID]*Activity),
		reasons: make(map[core.Reason]int),
	}
}

// Engine exposes the underlying event engine (for workload scripts).
func (w *World) Engine() *des.Engine { return w.eng }

// Now returns the current virtual time offset.
func (w *World) Now() time.Duration { return w.eng.Now().Sub(w.start) }

// Traffic returns the accounted traffic so far.
func (w *World) Traffic() Traffic { return w.traffic }

// Samples returns the recorded idle/collected curve.
func (w *World) Samples() []Sample { return w.samples }

// Collected returns the number of terminated activities.
func (w *World) Collected() int { return w.collected }

// CollectedBy returns termination counts per reason.
func (w *World) CollectedBy() map[core.Reason]int {
	out := make(map[core.Reason]int, len(w.reasons))
	for k, v := range w.reasons {
		out[k] = v
	}
	return out
}

// Live returns the number of live activities.
func (w *World) Live() int { return len(w.all) - w.collected }

// IdleCount returns the number of live idle activities.
func (w *World) IdleCount() int {
	var n int
	for _, a := range w.all {
		if !a.terminated && a.idle {
			n++
		}
	}
	return n
}

// Activity is one simulated active object.
type Activity struct {
	w         *World
	id        ids.ActivityID
	node      ids.NodeID
	collector *core.Collector

	idle       bool
	terminated bool
	reason     core.Reason
	// pinnedBusy marks a permanent root (registered activity / dummy
	// handle, §4.1): serving requests never returns it to idleness.
	pinnedBusy bool

	// service queue: pending request bodies, served sequentially.
	pending []func()
	serving bool
	// serviceTime applies per request.
	serviceTime time.Duration
}

// NewActivity creates an activity on node, idle, with its heartbeat phase
// randomized within one TTB (real deployments' beats are unsynchronized).
func (w *World) NewActivity(node ids.NodeID) *Activity {
	gen, ok := w.gens[node]
	if !ok {
		gen = ids.NewGenerator(node)
		w.gens[node] = gen
	}
	a := &Activity{
		w:           w,
		id:          gen.Next(),
		node:        node,
		idle:        true,
		serviceTime: 10 * time.Millisecond,
	}
	cfg := core.Config{
		TTB:                         w.cfg.TTB,
		TTA:                         w.cfg.TTA,
		DisableConsensusPropagation: w.cfg.DisableConsensusPropagation,
		Adaptive:                    w.cfg.Adaptive,
		MinHeightTree:               w.cfg.MinHeightTree,
		OnEvent:                     w.cfg.OnEvent,
	}
	a.collector = core.New(a.id, cfg, func() bool { return a.idle }, w.eng.Now())
	w.acts[a.id] = a
	w.all = append(w.all, a)
	phase := time.Duration(w.eng.Rand().Int63n(int64(w.cfg.TTB) + 1))
	w.eng.After(phase, a.beat)
	return a
}

// ID returns the activity identifier.
func (a *Activity) ID() ids.ActivityID { return a.id }

// Node returns the hosting node.
func (a *Activity) Node() ids.NodeID { return a.node }

// Collector exposes the DGC state machine.
func (a *Activity) Collector() *core.Collector { return a.collector }

// Terminated reports whether the activity has been collected.
func (a *Activity) Terminated() bool { return a.terminated }

// Reason returns why the activity terminated.
func (a *Activity) Reason() core.Reason { return a.reason }

// Idle reports the current idleness.
func (a *Activity) Idle() bool { return a.idle }

// SetServiceTime sets the per-request service duration.
func (a *Activity) SetServiceTime(d time.Duration) { a.serviceTime = d }

// SetBusy pins the activity busy (a root) until SetIdle is called; serving
// requests does not unpin it.
func (a *Activity) SetBusy() {
	a.idle = false
	a.pinnedBusy = true
}

// SetIdle unpins a busy activity and returns it to idleness, performing
// the becoming-idle clock increment.
func (a *Activity) SetIdle() {
	a.pinnedBusy = false
	if a.terminated || a.idle {
		return
	}
	a.idle = true
	a.collector.BecomeIdle(a.w.eng.Now())
}

// Link records that a references target (stub deserialized).
func (a *Activity) Link(target ids.ActivityID) {
	if a.terminated {
		return
	}
	a.collector.AddReferenced(target, a.w.eng.Now())
}

// Unlink records that a's last stub of target died at a local collection.
func (a *Activity) Unlink(target ids.ActivityID) {
	if a.terminated {
		return
	}
	a.collector.LostReferenced(target, a.w.eng.Now())
}

// latency returns the one-way latency between two nodes.
func (w *World) latency(a, b ids.NodeID) time.Duration {
	if a == b || w.cfg.Latency == nil {
		return 0
	}
	return w.cfg.Latency(a, b)
}

// Request models an application request from one activity to another:
// after the network latency the recipient becomes busy, serves for its
// service time while running fn (which typically mutates links), then
// drains its queue and reports idleness. Request payload bytes are
// accounted when crossing nodes.
func (w *World) Request(from, to *Activity, payloadBytes int, fn func()) {
	if from.node != to.node {
		w.traffic.AppBytes += uint64(payloadBytes)
		w.traffic.AppMessages++
	}
	w.eng.After(w.latency(from.node, to.node), func() {
		if to.terminated {
			return
		}
		to.deliver(fn)
	})
}

func (a *Activity) deliver(fn func()) {
	a.pending = append(a.pending, fn)
	a.idle = false
	if !a.serving {
		a.serveNext()
	}
}

func (a *Activity) serveNext() {
	if a.terminated || len(a.pending) == 0 {
		a.serving = false
		if !a.terminated && !a.idle && !a.pinnedBusy {
			a.idle = true
			a.collector.BecomeIdle(a.w.eng.Now())
		}
		return
	}
	a.serving = true
	fn := a.pending[0]
	a.pending = a.pending[1:]
	a.w.eng.After(a.serviceTime, func() {
		if a.terminated {
			return
		}
		if fn != nil {
			fn()
		}
		a.serveNext()
	})
}

// beat runs one heartbeat for the activity and reschedules itself.
func (a *Activity) beat() {
	if a.terminated {
		return
	}
	w := a.w
	res := a.collector.Tick(w.eng.Now())
	if res.Terminated {
		a.terminated = true
		a.reason = res.Reason
		w.collected++
		w.reasons[res.Reason]++
		return
	}
	for _, ob := range res.Messages {
		ob := ob
		dst, ok := w.acts[ob.To]
		if !ok {
			continue
		}
		crossNode := dst.node != a.node
		if crossNode {
			w.scratch = core.AppendMessage(w.scratch[:0], ob)
			w.traffic.DGCBytes += uint64(dgcEnvelopeBytes + len(w.scratch))
			w.traffic.DGCMessages++
		}
		w.eng.After(w.latency(a.node, dst.node), func() {
			if dst.terminated {
				return
			}
			resp := dst.collector.HandleMessage(ob.Msg, w.eng.Now())
			if crossNode {
				w.scratch = core.AppendResponse(w.scratch[:0], &resp, ob.Msg.Clock)
				w.traffic.DGCBytes += uint64(dgcEnvelopeBytes + len(w.scratch))
				w.traffic.DGCMessages++
			}
			w.eng.After(w.latency(dst.node, a.node), func() {
				if a.terminated {
					return
				}
				a.collector.HandleResponse(ob.To, resp, w.eng.Now())
			})
		})
	}
	next := res.NextBeat
	if next <= 0 {
		next = w.cfg.TTB
	}
	w.eng.After(next, a.beat)
}

// StartSampling begins recording the idle/collected time series.
func (w *World) StartSampling() {
	if w.sampling {
		return
	}
	w.sampling = true
	var tick func()
	tick = func() {
		w.samples = append(w.samples, Sample{
			T:         w.Now(),
			Idle:      w.IdleCount(),
			Collected: w.collected,
		})
		w.eng.After(w.cfg.SampleEvery, tick)
	}
	w.eng.After(0, tick)
}

// RunFor advances virtual time by d.
func (w *World) RunFor(d time.Duration) {
	w.eng.RunFor(d)
}

// RunUntilCollected runs until at least want activities terminated or
// until maxTime virtual time has passed; it reports whether the target was
// reached and the virtual time spent.
func (w *World) RunUntilCollected(want int, maxTime time.Duration) (bool, time.Duration) {
	begin := w.Now()
	deadline := w.eng.Now().Add(maxTime - begin)
	for w.collected < want && w.eng.Pending() > 0 && w.eng.Now().Before(deadline) {
		w.eng.Step()
	}
	return w.collected >= want, w.Now() - begin
}
