package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/active"
	"repro/internal/ids"
	"repro/internal/wire"
)

const (
	ringSize  = 8
	liveRings = 8
	// ringEvery is the fixed schedule garbage rings are built on.
	ringEvery = 50 * time.Millisecond
	// probeThink is the probe's pause between bursts: the probe must not
	// saturate a core, or the DGC drivers starve past TTA and collect the
	// live rings (seen one prototype run in three).
	probeThink = 2 * time.Millisecond
	// probeBurst is how many calls the probe makes back to back after each
	// pause. The first wakes the parked runtime — in a VM, a halted vCPU —
	// and its latency is the host's (p50 spread 15 %, p99 25 % of the median
	// over ten runs when every probe followed a pause); it is verified but
	// not sampled. The others are.
	probeBurst = 5
)

// ringService is one ring member: "link" stores the reference to the next
// member, which is the edge that closes the cycle; "echo" answers probes.
func ringService(tr *tracer, fifo *atomic.Int64) *active.Service {
	return active.NewService(
		active.Method("link", func(ctx *active.Context, next wire.Value) (struct{}, error) {
			ctx.Store("next", next)
			return struct{}{}, nil
		}),
		echoMethod(tr, fifo))
}

// gcLoad is the state of gc-churn: liveRings rings that stay referenced
// from the caller node, a builder that makes and abandons one garbage
// ring per ringEvery, and one paced probe calling the live rings.
type gcLoad struct {
	b *bed
	// probe calls the first member of each live ring through the caller
	// node's handles; only its worker 0 is used.
	probe callLoad
	built int
}

func startGCChurn(warmupRings, warmupProbes int) func(b *bed, in inputs) (load, error) {
	return func(b *bed, in inputs) (load, error) {
		l := &gcLoad{b: b, probe: callLoad{b: b, in: in, want: echoOf(in.payload)}}
		for r := 0; r < liveRings; r++ {
			hs, members, err := l.buildRing(r)
			if err != nil {
				return nil, fmt.Errorf("live ring %d: %w", r, err)
			}
			// A live ring is never released: any termination in it is a
			// safety failure.
			b.gc.add(members...)
			held, err := b.caller.HandleFor(hs[0].Ref())
			if err != nil {
				return nil, err
			}
			for _, h := range hs {
				h.Release()
			}
			l.probe.stubs = append(l.probe.stubs, active.NewStub[echoReq, echoResp](held, "echo"))
		}
		var warm tallies
		for i := 0; i < warmupRings; i++ {
			l.garbageRing(&warm)
		}
		one := make([]inFlight, 0, 1)
		for i := 0; i < warmupProbes; i++ {
			l.probe.burst(0, one, nil, &warm)
		}
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d operations failed: %v", warm.failed, warm.errs)
		}
		l.probe.tracing = true
		return l, nil
	}
}

// buildRing creates ringSize members, member i on node (offset+i) mod
// workerNodes, and links each to the next.
func (l *gcLoad) buildRing(offset int) ([]*active.Handle, []ids.ActivityID, error) {
	hs := make([]*active.Handle, ringSize)
	members := make([]ids.ActivityID, ringSize)
	for i := range hs {
		hs[i] = l.b.workers[(offset+i)%workerNodes].NewActive("ring", ringService(l.b.tr, &l.probe.fifo))
		members[i], _ = hs[i].Ref().AsRef()
	}
	for i, h := range hs {
		if _, err := h.CallSync("link", hs[(i+1)%ringSize].Ref(), opTimeout); err != nil {
			for _, h := range hs {
				h.Release()
			}
			return nil, nil, fmt.Errorf("link %d: %w", i, err)
		}
	}
	return hs, members, nil
}

// garbageRing builds one ring and drops every handle to it at once.
func (l *gcLoad) garbageRing(t *tallies) {
	offset := int(l.probe.in.places[l.built%inputCycle])
	l.built++
	hs, members, err := l.buildRing(offset)
	if err != nil {
		t.fail("garbage ring %d: %v", l.built, err)
		return
	}
	l.b.gc.release(l.b.gc.add(members...), time.Now())
	for _, h := range hs {
		h.Release()
	}
	t.ops++
}

func (l *gcLoad) run(d time.Duration) tallies {
	start := time.Now()
	deadline := start.Add(d)
	probes := newTallies(start, d, probeBurst*int(d/probeThink)+1024)
	var rings tallies
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * ringEvery)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			l.garbageRing(&rings)
		}
	}()
	go func() {
		defer wg.Done()
		one := make([]inFlight, 0, 1)
		for time.Now().Before(deadline) {
			l.probe.burst(0, one, nil, &probes)
			for i := 1; i < probeBurst; i++ {
				l.probe.burst(0, one, &probes.samples[0], &probes)
			}
			time.Sleep(probeThink)
		}
	}()
	wg.Wait()
	probes.close(deadline)
	probes.count(&rings)
	if n := l.probe.fifo.Load(); n > 0 {
		probes.failN(int(n), "%d probes overtook an earlier probe (FIFO)", n)
	}
	return probes
}

// release drops nothing: the live rings are the base population.
func (l *gcLoad) release() int { return liveRings * ringSize }
