package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/active"
)

// echoReq and echoResp are the wire shapes of the call workloads: a
// sequence number, which also names the client's span, and an opaque
// payload the servant answers with a digest of.
type echoReq struct {
	Seq     int64  `wire:"seq"`
	Payload []byte `wire:"payload"`
}

type echoResp struct {
	Seq  int64 `wire:"seq"`
	Echo int64 `wire:"echo"`
}

// echoMethod is the echo operation of one servant. It records the servant
// span of traced requests, and checks that each worker's requests reach
// the servant in the order that worker issued them (per-sender FIFO);
// disorder counts in fifo.
func echoMethod(tr *tracer, fifo *atomic.Int64) active.ServiceMethod {
	var last [loadWorkers]int64
	return active.Method("echo", func(_ *active.Context, req echoReq) (echoResp, error) {
		sp := tr.span(req.Seq)
		if sp != nil {
			sp.t2 = tr.now()
		}
		if w, n := splitSeq(req.Seq); req.Seq >= 0 && w < loadWorkers {
			if int64(n) < last[w] {
				fifo.Add(1)
			}
			last[w] = int64(n)
		}
		resp := echoResp{Seq: req.Seq, Echo: echoOf(req.Payload)}
		if sp != nil {
			sp.t3 = tr.now()
		}
		return resp, nil
	})
}

// callLoad is the state of call-sim, call-tcp and window-tcp: numActors
// echo servants spread over the worker nodes, each held by one handle on
// the caller node, and loadWorkers callers that each keep window calls in
// flight (window 1 is the synchronous closed loop).
type callLoad struct {
	b       *bed
	in      inputs
	window  int
	want    int64
	handles []*active.Handle
	stubs   []active.Stub[echoReq, echoResp]
	garbage []int // tracker index of each actor
	next    [loadWorkers]int
	fifo    atomic.Int64
	// tracing is set once the warm-up is over.
	tracing bool
}

func startCalls(window, warmupOps int) func(b *bed, in inputs) (load, error) {
	return func(b *bed, in inputs) (load, error) {
		l := &callLoad{b: b, in: in, window: window, want: echoOf(in.payload)}
		for i := 0; i < numActors; i++ {
			local := b.workers[i%workerNodes].NewActive(fmt.Sprintf("echo-%d", i), active.NewService(echoMethod(b.tr, &l.fifo)))
			remote, err := b.caller.HandleFor(local.Ref())
			if err != nil {
				return nil, err
			}
			// The caller's handle is the actor's only root from here on.
			local.Release()
			id, _ := local.Ref().AsRef()
			l.garbage = append(l.garbage, b.gc.add(id))
			l.handles = append(l.handles, remote)
			l.stubs = append(l.stubs, active.NewStub[echoReq, echoResp](remote, "echo"))
		}
		if warm := l.drive(warmupOps/loadWorkers, 0); warm.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d calls failed: %v", warm.failed, warm.ops+warm.failed, warm.errs)
		}
		l.tracing = true
		return l, nil
	}
}

func (l *callLoad) run(d time.Duration) tallies {
	t := l.drive(0, d)
	if n := l.fifo.Load(); n > 0 {
		t.failN(int(n), "%d requests overtook an earlier request of the same sender (FIFO)", n)
	}
	return t
}

// drive runs the callers until each has issued maxOps operations
// (maxOps > 0) or d has passed.
func (l *callLoad) drive(maxOps int, d time.Duration) tallies {
	// Room for the whole phase at several times the rate this runtime
	// reaches, so the samples do not reallocate while timed.
	room := int(d.Seconds()*300_000) + maxOps + 1024
	return runWorkers(d, room, func(w int, deadline time.Time, sm *sampler, t *tallies) {
		pend := make([]inFlight, 0, l.window)
		for issued := l.window; ; issued += l.window {
			end := l.burst(w, pend, sm, t)
			if maxOps > 0 && issued >= maxOps || maxOps == 0 && !end.Before(deadline) {
				return
			}
		}
	})
}

// inFlight is one issued call awaiting its reply.
type inFlight struct {
	fut   *active.TypedFuture[echoResp]
	seq   int64
	start time.Time
	sp    *span
}

// burst issues cap(pend) calls back to back, waits for them all, verifies
// each answer and records each latency in sm (nil: verify only). It
// returns the time the last wait ended.
func (l *callLoad) burst(w int, pend []inFlight, sm *sampler, t *tallies) time.Time {
	var tr *tracer
	if l.tracing && sm != nil {
		tr = l.b.tr
	}
	pend = pend[:0]
	for k := 0; k < cap(pend); k++ {
		n := l.next[w]
		l.next[w]++
		seq := makeSeq(w, n)
		stub := l.stubs[int(l.in.targets[w][n%inputCycle])%len(l.stubs)]
		sp := tr.span(seq)
		start := time.Now()
		if sp != nil {
			sp.t0 = int64(start.Sub(tr.epoch))
		}
		fut, err := stub.Call(echoReq{Seq: seq, Payload: l.in.payload})
		if sp != nil {
			sp.t1 = tr.now()
		}
		if err != nil {
			t.fail("call %d: %v", seq, err)
			continue
		}
		pend = append(pend, inFlight{fut: fut, seq: seq, start: start, sp: sp})
	}
	end := time.Now()
	for _, p := range pend {
		resp, err := p.fut.Wait(opTimeout)
		end = time.Now()
		switch {
		case err != nil:
			t.fail("call %d: %v", p.seq, err)
		case resp.Seq != p.seq || resp.Echo != l.want:
			t.fail("call %d answered (%d, %d), want (%d, %d)", p.seq, resp.Seq, resp.Echo, p.seq, l.want)
		default:
			if p.sp != nil {
				p.sp.t4 = int64(end.Sub(tr.epoch))
			}
			t.ops++
			if sm != nil {
				sm.add(end, int64(end.Sub(p.start)))
			}
		}
	}
	return end
}

// release drops the caller's handles, spread evenly over one beat: all
// the handles beat in the caller node's phase, so dropped together they
// would give one collection time sixteen times over, and which one would
// depend on where in the beat the round happened to end.
func (l *callLoad) release() int {
	for i, h := range l.handles {
		l.b.gc.release(l.garbage[i], time.Now())
		h.Release()
		time.Sleep(l.b.spec.ttb / time.Duration(len(l.handles)))
	}
	return 0
}
