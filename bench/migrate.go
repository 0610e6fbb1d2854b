package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/active"
	"repro/internal/wire"
)

// incReq and incResp are the migrating counter's wire shapes.
type incReq struct {
	Seq int64 `wire:"seq"`
}

type incResp struct {
	Seq int64 `wire:"seq"`
	N   int64 `wire:"n"`
}

// counterService keeps its count in the activity's Store, which is the
// state a migration ships: answering 2 after the move proves it arrived.
func counterService(tr *tracer) *active.Service {
	return active.NewService(
		active.Method("inc", func(ctx *active.Context, req incReq) (incResp, error) {
			sp := tr.span(req.Seq)
			if sp != nil {
				sp.t2 = tr.now()
			}
			n := ctx.Load("n").AsInt() + 1
			ctx.Store("n", wire.Int(n))
			if sp != nil {
				sp.t3 = tr.now()
			}
			return incResp{Seq: req.Seq, N: n}, nil
		}))
}

// kindSerial makes each round's behavior kind unique: the registry of
// kinds is process-global, and a round's servants must record into that
// round's tracer.
var kindSerial atomic.Int64

// releaseLag is how many lifecycles later a lifecycle's handles are
// dropped. Dropping them at once trips a race in the runtime: a redirect
// that reaches the caller node while that node sweeps the just-released
// stub can leave the handle's dummy referencing the new identity for
// ever (Heap.RebindStubs and Collector.AddReferenced in applyRedirect are
// not atomic against the sweep's tag death), and the migrated activity is
// then never collected: 1 round in about 25 here. A few lifecycles later
// the redirect has long landed. See README.md, "What the sizing found".
const releaseLag = 8

// finished is a verified lifecycle whose roots are still held.
type finished struct {
	garbage int // tracker slot
	h, hc   *active.Handle
}

// migrateLoad is the state of migrate-churn: no standing population, two
// closed-loop workers each running whole lifecycles.
type migrateLoad struct {
	b       *bed
	in      inputs
	kind    string
	next    [loadWorkers]int
	held    [loadWorkers][]finished
	tracing bool
}

func startMigrate(warmupOps int) func(b *bed, in inputs) (load, error) {
	return func(b *bed, in inputs) (load, error) {
		l := &migrateLoad{b: b, in: in, kind: fmt.Sprintf("bench/counter-%d", kindSerial.Add(1))}
		// The registry outlives the round: the factory must hold the
		// tracer alone, not the bed and through it the whole Env.
		tr := b.tr
		active.RegisterBehavior(l.kind, func() active.Behavior { return counterService(tr) })
		if warm := l.drive(warmupOps/loadWorkers, 0); warm.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d lifecycles failed: %v", warm.failed, warm.ops+warm.failed, warm.errs)
		}
		l.tracing = true
		return l, nil
	}
}

func (l *migrateLoad) run(d time.Duration) tallies { return l.drive(0, d) }

func (l *migrateLoad) drive(maxOps int, d time.Duration) tallies {
	room := int(d.Seconds()*10_000) + maxOps + 1024
	return runWorkers(d, room, func(w int, deadline time.Time, sm *sampler, t *tallies) {
		for done := 0; ; done++ {
			start := time.Now()
			if maxOps > 0 && done >= maxOps || maxOps == 0 && !start.Before(deadline) {
				return
			}
			n := l.next[w]
			l.next[w]++
			if err := l.lifecycle(w, n); err != nil {
				t.fail("lifecycle %d/%d: %v", w, n, err)
				continue
			}
			end := time.Now()
			t.ops++
			sm.add(end, int64(end.Sub(start)))
		}
	})
}

// lifecycle is one operation: spawn a counter, call it from the caller
// node, migrate it, call it again through the now-stale handle, and
// release the roots of an earlier lifecycle.
func (l *migrateLoad) lifecycle(w, n int) error {
	src, dst := l.in.migration(w + loadWorkers*n)
	h, err := l.b.workers[src].SpawnKind("counter", l.kind)
	if err != nil {
		return fmt.Errorf("spawn: %w", err)
	}
	oldID, _ := h.Ref().AsRef()
	done := finished{garbage: l.b.gc.add(oldID), h: h}
	// A failed lifecycle drops its roots at once; a verified one queues
	// them and drops those of the lifecycle releaseLag before it.
	verified := false
	defer func() {
		if !verified {
			l.drop(done)
		}
	}()
	hc, err := l.b.caller.HandleFor(h.Ref())
	if err != nil {
		return fmt.Errorf("handle: %w", err)
	}
	done.hc = hc
	stub := active.NewStub[incReq, incResp](hc, "inc")

	var tr *tracer
	if l.tracing {
		tr = l.b.tr
	}
	seq := makeSeq(w, n)
	sp := tr.span(seq)
	if sp != nil {
		sp.t0 = int64(time.Since(tr.epoch))
	}
	fut, err := stub.Call(incReq{Seq: seq})
	if sp != nil {
		sp.t1 = tr.now()
	}
	if err != nil {
		return fmt.Errorf("first call: %w", err)
	}
	resp, err := fut.Wait(opTimeout)
	if err != nil {
		return fmt.Errorf("first call: %w", err)
	}
	if sp != nil {
		sp.t4 = tr.now()
	}
	if resp.Seq != seq || resp.N != 1 {
		return fmt.Errorf("first call answered (%d, %d), want (%d, 1)", resp.Seq, resp.N, seq)
	}

	moved, err := h.Migrate(l.b.workers[dst].ID())
	if err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	newRef, err := moved.Wait(opTimeout)
	if err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	newID, ok := newRef.AsRef()
	if !ok || newID == oldID {
		return fmt.Errorf("migrate answered %v, want a new reference", newRef)
	}
	l.b.gc.addMember(done.garbage, newID)

	// Seq -1 names no span: only the first call of a lifecycle is staged.
	resp, err = stub.CallSync(incReq{Seq: -1}, opTimeout)
	if err != nil {
		return fmt.Errorf("call after migration: %w", err)
	}
	if resp.N != 2 {
		return fmt.Errorf("call after migration answered %d, want 2 (state lost)", resp.N)
	}
	verified = true
	l.held[w] = append(l.held[w], done)
	if len(l.held[w]) > releaseLag {
		l.drop(l.held[w][0])
		l.held[w] = l.held[w][1:]
	}
	return nil
}

// drop releases a lifecycle's roots: its counter and forwarder are
// garbage from here on.
func (l *migrateLoad) drop(f finished) {
	l.b.gc.release(f.garbage, time.Now())
	if f.hc != nil {
		f.hc.Release()
	}
	f.h.Release()
}

// release drops the roots of the last few lifecycles.
func (l *migrateLoad) release() int {
	for w := range l.held {
		for _, f := range l.held[w] {
			l.drop(f)
		}
		l.held[w] = nil
	}
	return 0
}
