package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/active"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

const (
	// opTimeout bounds one wait; an operation that exceeds it has failed.
	opTimeout = 5 * time.Second
	// collectDeadlineBeats is the liveness bound: garbage still alive this
	// many beats after its last root was dropped is a failed operation.
	collectDeadlineBeats = 100
	// tcpBatchWindow is the linger window the TCP workloads run with, the
	// value the repo's own loadgen suite uses for its batched arms.
	tcpBatchWindow = 200 * time.Microsecond
)

// bedSpec is the deployment a workload runs on.
type bedSpec struct {
	tcp      bool
	ttb, tta time.Duration
}

// bed is one round's deployment: a fresh Env with one caller node and
// workerNodes worker nodes, DGC on.
type bed struct {
	spec    bedSpec
	env     *active.Env
	caller  *active.Node
	workers [workerNodes]*active.Node
	gc      *gcTracker
	tr      *tracer // nil on untraced rounds
}

func newBed(spec bedSpec, tr *tracer) (*bed, error) {
	b := &bed{spec: spec, gc: newGCTracker(spec.ttb, collectDeadlineBeats, tr != nil), tr: tr}
	cfg := active.Config{TTB: spec.ttb, TTA: spec.tta, OnEvent: b.gc.onEvent}
	var net transport.Transport = simnet.New(simnet.Config{})
	if spec.tcp {
		t, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			return nil, fmt.Errorf("tcp transport: %w", err)
		}
		net = t
		cfg.BatchWindow = tcpBatchWindow
	}
	if tr != nil {
		net = traceTransport(net, &tr.net)
	}
	cfg.Transport = net
	b.env = active.NewEnv(cfg)
	b.caller = b.env.NewNode()
	for i := range b.workers {
		b.workers[i] = b.env.NewNode()
	}
	return b, nil
}

// sliceLen is the length of the time slices rates and percentiles are
// taken over; a phase shorter than this is one slice.
const sliceLen = time.Second

// tallies is what a load reports for one phase.
type tallies struct {
	ops     int                  // completed and verified
	failed  int                  // timed out, errored, wrongly answered or refused
	samples [loadWorkers]sampler // latencies of the completed operations
	slices  int                  // complete time slices in the phase
	every   time.Duration        // their length
	errs    []string             // the first few failures, for the report
}

// newTallies prepares the samplers for a phase of length d starting at
// start, with room for perWorker samples each. d = 0 (a warm-up, bounded
// by count) makes one endless slice.
func newTallies(start time.Time, d time.Duration, perWorker int) tallies {
	t := tallies{every: min(sliceLen, d), slices: 1}
	if d == 0 {
		t.every = 24 * time.Hour
	} else {
		t.slices = int(d / t.every)
	}
	for w := range t.samples {
		t.samples[w] = newSampler(start, t.every, perWorker)
	}
	return t
}

// close ends the phase: every slice up to end is closed.
func (t *tallies) close(end time.Time) {
	for w := range t.samples {
		t.samples[w].roll(end)
	}
}

// heldBytes is the heap the latency samples occupy.
func (t *tallies) heldBytes() int {
	var n int
	for w := range t.samples {
		n += 8 * cap(t.samples[w].lat)
	}
	return n
}

func (t *tallies) fail(format string, args ...any) { t.failN(1, format, args...) }

// failN records n failed operations with one description.
func (t *tallies) failN(n int, format string, args ...any) {
	t.failed += n
	if len(t.errs) < 3 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// count adds another tally's operation counts and failures.
func (t *tallies) count(o *tallies) {
	t.ops += o.ops
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 3 {
			t.errs = append(t.errs, e)
		}
	}
}

// runWorkers runs fn on loadWorkers goroutines for a phase of length d
// (0: until each fn returns of its own accord) and gathers their samples
// and counts. fn records worker w's latencies in sm and its counts in t.
func runWorkers(d time.Duration, perWorker int, fn func(w int, deadline time.Time, sm *sampler, t *tallies)) tallies {
	start := time.Now()
	deadline := start.Add(d)
	t := newTallies(start, d, perWorker)
	var per [loadWorkers]tallies
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, deadline, &t.samples[w], &per[w])
		}()
	}
	wg.Wait()
	t.close(deadline)
	for w := range per {
		t.count(&per[w])
	}
	return t
}

// load is a workload's running state on one bed.
type load interface {
	// run issues operations for d and returns what happened.
	run(d time.Duration) tallies
	// release drops the roots the workload still holds and returns how
	// many activities must stay alive afterwards (the base population).
	release() int
}

// workload is one named scenario.
type workload struct {
	name string
	why  string
	bed  bedSpec
	// payloadBytes sizes the request payload the inputs carry.
	payloadBytes int
	// start builds the standing population on b and warms every path up
	// with a fixed operation count, so that set-up is a fixed amount of
	// work and work moved into it shows in setup_s.
	start func(b *bed, in inputs) (load, error)
}

// roundResult is everything measured in one round of one workload.
type roundResult struct {
	setupS    float64
	measuredS float64
	tallies
	gc            gcOutcome
	dgcBytes      uint64 // ClassDGC bytes, measured phase through drain
	settledHeapMB float64
	drainS        float64
	envCloseMs    float64
	calibNs       float64
	goroutinesEnd int
	net           transport.Counters // traffic of the measured phase alone
	proc          procDelta
	eventKinds    [numEventKinds]int64
}

// procSnap is a reading of the process's cumulative resource counters.
type procSnap struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	pauseNs    uint64
	maxRSSKB   int64
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would only blank the CPU columns.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		pauseNs:    ms.PauseTotalNs,
		maxRSSKB:   ru.Maxrss,
	}
}

// procDelta is the process cost of one measured phase.
type procDelta struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	peakRSSMB  float64
}

func (a procSnap) since(b procSnap) procDelta {
	return procDelta{
		cpu:        a.cpu - b.cpu,
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcPause:    time.Duration(a.pauseNs - b.pauseNs),
		peakRSSMB:  float64(a.maxRSSKB) / 1024,
	}
}

// calibrate times a fixed pure-CPU kernel (a xorshift chain, no memory
// traffic) and returns nanoseconds per thousand steps. The host's speed
// drifts over minutes; printing this beside every round shows whether a
// moved number moved with the machine.
func calibrate() float64 {
	const steps = 4_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ns := float64(time.Since(start).Nanoseconds())
	calibSink.Store(x)
	return ns / (steps / 1000)
}

// calibSink keeps the calibration kernel from being optimised away.
var calibSink atomic.Uint64

// heapAlloc is the live heap after a collection.
func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runRound runs one round of w: set-up, measured phase, release, drain,
// settled heap, close.
func runRound(w *workload, seed int64, measure time.Duration, tr *tracer) (roundResult, error) {
	res := roundResult{calibNs: calibrate()}
	// The settled heap is what the round adds to the process: whatever
	// earlier rounds left behind (their latency samples, the Go runtime's
	// never-freed goroutine descriptors) is in this baseline.
	baseline := heapAlloc()

	start := time.Now()
	b, err := newBed(w.bed, tr)
	if err != nil {
		return res, err
	}
	defer b.env.Close()
	ld, err := w.start(b, genInputs(seed, w.payloadBytes))
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	res.setupS = time.Since(start).Seconds()

	b.env.Network().ResetCounters()
	before := readProc()
	measureStart := time.Now()
	res.tallies = ld.run(measure)
	res.measuredS = time.Since(measureStart).Seconds()
	res.proc = readProc().since(before)
	res.net = b.env.Network().Snapshot()

	// Drain: drop the remaining roots and wait until every released
	// structure is collected and the live count is back to base.
	drainStart := time.Now()
	base := ld.release()
	limit := collectDeadlineBeats*w.bed.ttb + 5*time.Second
	for b.gc.pending() > 0 || b.env.LiveActivities() > base {
		if time.Since(drainStart) > limit {
			break
		}
		time.Sleep(w.bed.ttb / 4)
	}
	res.drainS = time.Since(drainStart).Seconds()
	res.dgcBytes = b.env.Network().Snapshot().Bytes[transport.ClassDGC]
	res.gc = b.gc.outcome()
	if left := b.env.LiveActivities() - base; left > 0 {
		res.failN(left, "%d activities still alive %.0f s after the last release", left, res.drainS)
	}
	if n := res.gc.overdue; n > 0 {
		res.failN(n, "%d garbage structures not collected within %d beats", n, collectDeadlineBeats)
	}
	if n := res.gc.early; n > 0 {
		res.failN(n, "%d rooted activities were collected (safety)", n)
	}
	for k := range res.eventKinds {
		res.eventKinds[k] = b.gc.kinds[k].Load()
	}

	// Settled heap: all garbage reclaimed, Env still open; the latency
	// samples are the benchmark's, not the runtime's.
	res.settledHeapMB = (heapAlloc() - baseline - float64(res.heldBytes())) / 1e6

	closeStart := time.Now()
	b.env.Close()
	res.envCloseMs = float64(time.Since(closeStart).Microseconds()) / 1e3
	res.goroutinesEnd = runtime.NumGoroutine()
	return res, nil
}
