// Package cdmdgc implements a simplified comparator in the style of Veiga
// & Ferreira's "Asynchronous Complete Distributed Garbage Collection"
// (IPDPS 2005), the related work the paper contrasts itself against in
// §6: cycle detection messages (CDMs) that traverse the reference graph
// and *grow* a view of it — visited activities plus their still
// unresolved dependencies (referencers not yet visited). A cycle is
// garbage when a CDM has no unresolved dependencies left.
//
// The paper's critique, which this package exists to quantify: "the
// growth of the message is limited only by the total size of the
// distributed system, so the communication overhead can become large" —
// versus the paper's bounded-size DGC records (core.MaxMessageSize).
// BenchmarkCDMMessageGrowth measures exactly that.
//
// Simplifications (documented, acceptable for a complexity comparator):
// the harness runs on the deterministic DES; referencer lists are
// maintained by the same heartbeat mechanism as the main algorithm and
// are read directly; a CDM reaching a busy activity is dropped and the
// detection restarts later. Unlike Veiga & Ferreira's full algorithm, no
// effort is made to tolerate concurrent mutation during a traversal —
// the benchmark graphs are quiescent, which favours the comparator.
package cdmdgc

import (
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
)

// CDM is one cycle detection message.
type CDM struct {
	// Originator started the detection.
	Originator ids.ActivityID
	// Visited holds every activity the CDM has traversed (all idle).
	Visited map[ids.ActivityID]bool
	// Deps holds the referencers seen but not yet visited: the unknown
	// part of the graph.
	Deps map[ids.ActivityID]bool
}

// WireSize is the encoded size: two 8-byte IDs of header plus 8 bytes per
// carried identifier — the quantity that grows with the graph.
func (m *CDM) WireSize() int {
	return 16 + 8*(len(m.Visited)+len(m.Deps))
}

// Config parameterizes a World.
type Config struct {
	// DetectEvery is the period at which idle activities (re)start
	// detections, comparable to the paper's TTB.
	DetectEvery time.Duration
	// HopLatency is the per-hop message latency.
	HopLatency time.Duration
	Seed       int64
}

// World is the DES harness for the comparator.
type World struct {
	eng  *des.Engine
	cfg  Config
	acts map[ids.ActivityID]*Activity

	// Traffic accounting.
	CDMBytes    uint64
	CDMMessages uint64
	// MaxCDMBytes is the largest single message observed.
	MaxCDMBytes int

	collected int
}

// NewWorld creates an empty world.
func NewWorld(cfg Config) *World {
	return &World{
		eng:  des.New(time.Unix(0, 0), cfg.Seed),
		cfg:  cfg,
		acts: make(map[ids.ActivityID]*Activity),
	}
}

// RunFor advances virtual time.
func (w *World) RunFor(d time.Duration) { w.eng.RunFor(d) }

// Collected returns the number of terminated activities.
func (w *World) Collected() int { return w.collected }

// Activity is one simulated active object under the CDM collector.
type Activity struct {
	w           *World
	id          ids.ActivityID
	idle        bool
	terminated  bool
	referencers map[ids.ActivityID]bool
	referenced  map[ids.ActivityID]bool
	// detecting dedupes concurrent detections from this originator.
	detecting bool
}

// NewActivity creates an idle activity.
func (w *World) NewActivity(id ids.ActivityID) *Activity {
	a := &Activity{
		w:           w,
		id:          id,
		idle:        true,
		referencers: make(map[ids.ActivityID]bool),
		referenced:  make(map[ids.ActivityID]bool),
	}
	w.acts[id] = a
	phase := time.Duration(w.eng.Rand().Int63n(int64(w.cfg.DetectEvery) + 1))
	w.eng.After(phase, a.maybeDetect)
	return a
}

// ID returns the activity identifier.
func (a *Activity) ID() ids.ActivityID { return a.id }

// Terminated reports collection.
func (a *Activity) Terminated() bool { return a.terminated }

// SetBusy pins the activity busy.
func (a *Activity) SetBusy() { a.idle = false }

// SetIdle returns it to idleness.
func (a *Activity) SetIdle() { a.idle = true }

// Link records an edge a→b on both endpoints (the reference-listing part
// is assumed, as in Veiga & Ferreira).
func (a *Activity) Link(b *Activity) {
	a.referenced[b.id] = true
	b.referencers[a.id] = true
}

// Unlink removes the edge.
func (a *Activity) Unlink(b *Activity) {
	delete(a.referenced, b.id)
	delete(b.referencers, a.id)
}

// maybeDetect periodically starts a detection from an idle activity with
// referencers (a cycle candidate).
func (a *Activity) maybeDetect() {
	if a.terminated {
		return
	}
	if a.idle && len(a.referencers) > 0 && !a.detecting {
		a.detecting = true
		m := &CDM{
			Originator: a.id,
			Visited:    map[ids.ActivityID]bool{a.id: true},
			Deps:       make(map[ids.ActivityID]bool),
		}
		for r := range a.referencers {
			if !m.Visited[r] {
				m.Deps[r] = true
			}
		}
		a.forward(m)
	}
	a.w.eng.After(a.w.cfg.DetectEvery, a.maybeDetect)
}

// forward sends the CDM to one unresolved dependency (deterministically
// the smallest, for reproducibility). An empty dependency set means the
// whole recursive referencer closure is visited and idle: garbage.
func (a *Activity) forward(m *CDM) {
	w := a.w
	if len(m.Deps) == 0 {
		// Consensus equivalent: terminate every visited activity.
		for id := range m.Visited {
			if v, ok := w.acts[id]; ok && !v.terminated {
				v.terminated = true
				w.collected++
			}
		}
		if o, ok := w.acts[m.Originator]; ok {
			o.detecting = false
		}
		return
	}
	var next ids.ActivityID
	first := true
	for id := range m.Deps {
		if first || id.Less(next) {
			next = id
			first = false
		}
	}
	size := m.WireSize()
	w.CDMBytes += uint64(size)
	w.CDMMessages++
	if size > w.MaxCDMBytes {
		w.MaxCDMBytes = size
	}
	w.eng.After(w.cfg.HopLatency, func() {
		dst, ok := w.acts[next]
		if !ok || dst.terminated {
			// Stale dependency: drop the detection; it will restart.
			if o, okO := w.acts[m.Originator]; okO {
				o.detecting = false
			}
			return
		}
		dst.receive(m)
	})
}

// receive processes a CDM at an activity: a busy activity vetoes the
// detection; an idle one resolves itself, adds its referencers as new
// dependencies, and forwards.
func (dst *Activity) receive(m *CDM) {
	w := dst.w
	if !dst.idle {
		if o, ok := w.acts[m.Originator]; ok {
			o.detecting = false
		}
		return
	}
	m.Visited[dst.id] = true
	delete(m.Deps, dst.id)
	for r := range dst.referencers {
		if !m.Visited[r] {
			m.Deps[r] = true
		}
	}
	dst.forward(m)
}

// SortedIDs is a test helper returning the activity IDs in order.
func (w *World) SortedIDs() []ids.ActivityID {
	out := make([]ids.ActivityID, 0, len(w.acts))
	for id := range w.acts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
