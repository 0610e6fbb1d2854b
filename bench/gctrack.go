package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
)

// numEventKinds is one past the largest core.EventKind.
const numEventKinds = int(core.EventTerminated) + 1

// structure is one unit of (future) garbage: a ring, a single actor, or a
// migrated counter with its forwarder. It is collected when every member
// has terminated; its slot is then reused, so that the tracker's memory
// follows the garbage in flight and not the length of the run (the
// settled heap is read with the tracker alive).
type structure struct {
	left     int       // members not yet terminated
	relAt    time.Time // when the last root was dropped; zero while rooted
	detectAt time.Time // first consensus detection among the members
}

// gcOutcome is what the tracker saw by the end of a round.
type gcOutcome struct {
	collectBeats []float64 // release → last termination, per structure
	detectBeats  []float64 // release → first consensus detection
	waveBeats    []float64 // first detection → last termination
	collected    int       // garbage activities terminated
	overdue      int       // released structures not collected in time
	early        int       // activities terminated while still rooted
}

// gcTracker turns the collectors' OnEvent stream into per-structure
// collection times and the two DGC correctness counts: activities
// terminated while still rooted (safety) and structures not collected
// within the deadline (liveness).
type gcTracker struct {
	ttb           time.Duration
	deadlineBeats float64

	mu      sync.Mutex
	byID    map[ids.ActivityID]int
	structs []structure
	free    []int // reusable slots of structs
	waiting int   // released structures not yet collected
	out     gcOutcome

	// kinds counts events per kind; only the traced pass asks for it.
	kinds      [numEventKinds]atomic.Int64
	countKinds bool
}

func newGCTracker(ttb time.Duration, deadlineBeats float64, countKinds bool) *gcTracker {
	return &gcTracker{ttb: ttb, deadlineBeats: deadlineBeats, byID: make(map[ids.ActivityID]int), countKinds: countKinds}
}

func (t *gcTracker) beats(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(t.ttb)
}

// onEvent is the Config.OnEvent hook. It runs with collector locks held,
// so it only touches the tracker's own state.
func (t *gcTracker) onEvent(ev core.Event) {
	if t.countKinds && int(ev.Kind) < numEventKinds {
		t.kinds[ev.Kind].Add(1)
	}
	if ev.Kind != core.EventTerminated && ev.Kind != core.EventConsensusDetected {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.byID[ev.Activity]
	if !ok {
		return
	}
	s := &t.structs[i]
	if ev.Kind == core.EventConsensusDetected {
		if s.detectAt.IsZero() {
			s.detectAt = now
		}
		return
	}
	delete(t.byID, ev.Activity)
	s.left--
	if s.relAt.IsZero() {
		t.out.early++
		return
	}
	t.out.collected++
	if s.left > 0 {
		return
	}
	b := t.beats(s.relAt, now)
	if b > t.deadlineBeats {
		t.out.overdue++
	}
	t.out.collectBeats = append(t.out.collectBeats, b)
	if !s.detectAt.IsZero() {
		t.out.detectBeats = append(t.out.detectBeats, t.beats(s.relAt, s.detectAt))
		t.out.waveBeats = append(t.out.waveBeats, t.beats(s.detectAt, now))
	}
	t.waiting--
	t.free = append(t.free, i)
}

// add registers a structure made of the given activities and returns its
// slot.
func (t *gcTracker) add(members ...ids.ActivityID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := structure{left: len(members)}
	var i int
	if n := len(t.free); n > 0 {
		i, t.free = t.free[n-1], t.free[:n-1]
		t.structs[i] = s
	} else {
		i = len(t.structs)
		t.structs = append(t.structs, s)
	}
	for _, id := range members {
		t.byID[id] = i
	}
	return i
}

// addMember adds one more activity to a structure that is still rooted
// (a migrated activity's new identity).
func (t *gcTracker) addMember(i int, id ids.ActivityID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.structs[i].left++
	t.byID[id] = i
}

// release records that structure i lost its last root at time at.
func (t *gcTracker) release(i int, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.structs[i].relAt = at
	if t.structs[i].left > 0 {
		t.waiting++
	}
}

// pending reports how many released structures are not yet collected.
func (t *gcTracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting
}

// outcome closes the books: a released structure still alive is overdue.
func (t *gcTracker) outcome() gcOutcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.out
	out.overdue += t.waiting
	return out
}
