package active

// Chaos under load: node kills, crash-restart cycles and migration
// churn while closed-loop callers keep hammering long-lived actors. The
// conformance scenarios prove each failure path once on a quiet system;
// these legs repeat them against a busy one, where the failure detector,
// death cleanup, checkpoint recovery and forwarders all race live
// traffic. Every leg runs over simnet, whose KillNode/ReviveNode hooks
// model a machine going dark and coming back.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/wire"
)

// Pacing for a saturated host: the callers keep every core busy, so the
// beats and windows sit well above the runtime's low-latency defaults. A
// driver goroutine starved for one scheduling hiccup must neither let a
// referenced actor self-collect nor get a live node declared dead.
const (
	chaosTTB     = 100 * time.Millisecond
	chaosTTA     = time.Second
	chaosDetect  = 500 * time.Millisecond // SuspectAfter and DeadAfter
	chaosTimeout = 5 * time.Second        // one operation's wait
	chaosEvery   = 100 * time.Millisecond // chaos cycle period
	chaosCallers = 4
)

// chaosEnv builds a leg's environment at the saturated-host pacing, with
// the cluster runtime on when the leg kills nodes and a checkpoint store
// when it restarts them.
func chaosEnv(t *testing.T, cluster bool, st store.Store) *Env {
	cfg := Config{
		TTB: chaosTTB, TTA: chaosTTA,
		Cluster: ClusterConfig{Enabled: cluster, SuspectAfter: chaosDetect, DeadAfter: chaosDetect},
	}
	if st != nil {
		cfg.Store = st
		cfg.CheckpointEvery = 25 * time.Millisecond
	}
	e := NewEnv(cfg)
	t.Cleanup(e.Close)
	return e
}

// errLog collects errors from many goroutines.
type errLog struct {
	mu   sync.Mutex
	errs []error
}

func (l *errLog) add(err error) {
	l.mu.Lock()
	l.errs = append(l.errs, err)
	l.mu.Unlock()
}

func (l *errLog) list() []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]error(nil), l.errs...)
}

// steadyLoad is the traffic every leg runs under: closed-loop callers on
// their own node calling long-lived echo actors on the worker nodes.
type steadyLoad struct {
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	ops      atomic.Int64
	errs     errLog
}

// startSteadyLoad spawns the actors and starts the callers. The callers
// stop before the environment closes even when the leg fails early.
func startSteadyLoad(t *testing.T, caller *Node, workers ...*Node) *steadyLoad {
	l := &steadyLoad{stop: make(chan struct{})}
	t.Cleanup(l.halt)
	var stubs []*Handle
	for i, n := range workers {
		for a := 0; a < 2; a++ {
			// The creating handle is never released: it pins the actor
			// for the environment's lifetime.
			local := n.NewActive(fmt.Sprintf("steady-%d-%d", i, a), echoBehavior())
			h, err := caller.HandleFor(local.Ref())
			if err != nil {
				t.Fatal(err)
			}
			stubs = append(stubs, h)
		}
	}
	for w := 0; w < chaosCallers; w++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for i := w; ; i++ {
				select {
				case <-l.stop:
					return
				default:
				}
				if _, err := stubs[i%len(stubs)].CallSync("echo", wire.Int(int64(i)), chaosTimeout); err != nil {
					l.errs.add(err)
				}
				l.ops.Add(1)
			}
		}()
	}
	return l
}

func (l *steadyLoad) halt() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// finish stops the callers and fails t unless calls ran and none failed.
func (l *steadyLoad) finish(t *testing.T) {
	t.Helper()
	l.halt()
	errs := l.errs.list()
	if len(errs) > 0 {
		t.Fatalf("%d of %d steady calls failed; first: %v", len(errs), l.ops.Load(), errs[0])
	}
	if l.ops.Load() == 0 {
		t.Fatal("no steady call completed")
	}
}

// chaosCycles runs cycle once up front, then every chaosEvery until done
// closes, and returns how many cycles ran. The up-front cycle matters on
// a starved scheduler, where the first tick may come too late.
func chaosCycles[T any](done <-chan T, cycle func()) int {
	tick := time.NewTicker(chaosEvery)
	defer tick.Stop()
	for n := 1; ; n++ {
		cycle()
		select {
		case <-done:
			return n
		case <-tick.C:
		}
	}
}

// nodeKiller runs join → spawn → call → kill lifecycles against e, each
// ending with one more call into the dead victim. That call leaves while
// the victim is only silent, not yet declared dead, so it can fail only
// through the death cleanup. late holds those futures, and held the
// handles they were called through: a released handle would fail its
// futures itself.
type nodeKiller struct {
	e      *Env
	caller *Node
	net    *simnet.Network
	late   []*Future
	held   []*Handle
}

func (k *nodeKiller) cycle(t *testing.T) {
	victim := k.e.NewNode()
	h := victim.NewActive("chaos-victim", echoBehavior())
	hc, err := k.caller.HandleFor(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if _, err := hc.CallSync("echo", wire.Int(1), chaosTimeout); err != nil {
		t.Fatalf("call before the kill: %v", err)
	}
	k.net.KillNode(victim.ID())
	fut, err := hc.Call("echo", wire.Int(2))
	if err != nil {
		t.Fatalf("call after the kill refused before detection: %v", err)
	}
	k.late = append(k.late, fut)
	k.held = append(k.held, hc)
	victim.Crash()
}

// checkLate fails t unless every call into a dead victim failed with the
// death sentinel or the transport's error. A timeout means the death
// cleanup never reached the caller's future table.
func (k *nodeKiller) checkLate(t *testing.T) {
	t.Helper()
	for i, fut := range k.late {
		_, err := fut.Wait(chaosTimeout)
		if err == nil || !(errors.Is(err, ErrNodeDead) || errors.Is(err, simnet.ErrUnreachable)) {
			t.Fatalf("call into killed victim %d: err = %v, want ErrNodeDead or ErrUnreachable", i, err)
		}
		k.held[i].Release()
	}
}

// TestChaosUnderLoad is the chaos gate, one leg per failure mode.
func TestChaosUnderLoad(t *testing.T) {
	t.Parallel()

	// kill: nodes join, serve one call and die while the steady callers
	// ride through; every call left in flight toward a victim must fail
	// fast once the survivors detect the death.
	t.Run("kill", func(t *testing.T) {
		e := chaosEnv(t, true, nil)
		caller := e.NewNode()
		load := startSteadyLoad(t, caller, e.NewNode(), e.NewNode())
		k := &nodeKiller{e: e, caller: caller, net: e.Network().(*simnet.Network)}
		n := chaosCycles(time.After(4*chaosEvery), func() { k.cycle(t) })
		if n < 2 {
			t.Fatalf("%d kill cycles ran, want at least 2", n)
		}
		k.checkLate(t)
		load.finish(t)
		t.Logf("%d kill cycles under %d steady calls", n, load.ops.Load())
	})

	// restart: a durable node of registered, checkpointed actors is killed
	// and recovered over and over; every stub the caller made before the
	// first crash must answer again after each restart.
	t.Run("restart", func(t *testing.T) {
		e := chaosEnv(t, false, store.NewMemStore())
		caller := e.NewNode()
		load := startSteadyLoad(t, caller, e.NewNode(), e.NewNode())
		durable := e.NewNode()
		durID := durable.ID()
		var stubs []*Handle
		for i := 0; i < 8; i++ {
			h, err := durable.SpawnKind(fmt.Sprintf("durable-%d", i), "test/counter")
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterName(fmt.Sprintf("durable-%d", i), h.Ref()); err != nil {
				t.Fatal(err)
			}
			// One acknowledged checkpoint up front: the first kill may
			// land before the cadence's first beat.
			fut, err := h.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fut.Wait(chaosTimeout); err != nil {
				t.Fatal(err)
			}
			hc, err := caller.HandleFor(h.Ref())
			if err != nil {
				t.Fatal(err)
			}
			stubs = append(stubs, hc)
			h.Release()
		}
		net := e.Network().(*simnet.Network)
		restart := func() {
			net.KillNode(durID)
			durable.Crash()
			net.ReviveNode(durID)
			if _, err := e.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			durable = e.Node(durID)
			deadline := time.Now().Add(10 * time.Second)
			for i, hc := range stubs {
				for {
					_, err := hc.CallSync("total", wire.Null(), 250*time.Millisecond)
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("durable-%d lost its identity across the restart: %v", i, err)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
		n := chaosCycles(time.After(4*chaosEvery), restart)
		if n < 2 {
			t.Fatalf("%d restarts ran, want at least 2", n)
		}
		load.finish(t)
		t.Logf("%d restarts under %d steady calls", n, load.ops.Load())
	})

	// churn-migrate-kill: bursts of short-lived activities, migration
	// lifecycles called through their stale handles, and node kills, all
	// at once, until 10 000 activities have existed. No reply may be lost.
	t.Run("churn-migrate-kill", func(t *testing.T) {
		e := chaosEnv(t, true, nil)
		caller := e.NewNode()
		workers := []*Node{e.NewNode(), e.NewNode(), e.NewNode(), e.NewNode()}
		load := startSteadyLoad(t, caller, workers...)
		k := &nodeKiller{e: e, caller: caller, net: e.Network().(*simnet.Network)}

		const (
			minCreated = 10_000
			burst      = 32
		)
		var created, migrations, kills atomic.Int64
		var errs errLog
		churn := func(rng *rand.Rand) error {
			hs := make([]*Handle, burst)
			for i := range hs {
				hs[i] = workers[rng.Intn(len(workers))].NewActive("churn", echoBehavior())
			}
			created.Add(burst)
			defer func() {
				for _, h := range hs {
					h.Release()
				}
			}()
			hc, err := caller.HandleFor(hs[rng.Intn(burst)].Ref())
			if err != nil {
				return err
			}
			defer hc.Release()
			_, err = hc.CallSync("echo", wire.Int(1), chaosTimeout)
			return err
		}
		migrate := func(rng *rand.Rand) error {
			i := rng.Intn(len(workers))
			src, dst := workers[i], workers[(i+1+rng.Intn(len(workers)-1))%len(workers)]
			h, err := src.SpawnKind("mig", "test/counter")
			if err != nil {
				return err
			}
			created.Add(1)
			defer h.Release()
			hc, err := caller.HandleFor(h.Ref())
			if err != nil {
				return err
			}
			defer hc.Release()
			add := func(when string, want int64) error {
				v, err := hc.CallSync("add", wire.Int(1), chaosTimeout)
				if err == nil && v.AsInt() != want {
					err = fmt.Errorf("answered %v, want %d", v, want)
				}
				if err != nil {
					return fmt.Errorf("%s: %w", when, err)
				}
				return nil
			}
			if err := add("call before migrating", 1); err != nil {
				return err
			}
			mfut, err := h.Migrate(dst.ID())
			if err == nil {
				_, err = mfut.Wait(chaosTimeout)
			}
			if err != nil {
				return fmt.Errorf("migrate: %w", err)
			}
			migrations.Add(1)
			return add("stale-handle call after migrating", 2)
		}

		// The churners run until the floor is reached and at least two
		// kills have landed among them. The hard stop turns a wedged run
		// into a failed gate instead of a hung test; quit stops the
		// churners if the leg fails early.
		hardStop := time.Now().Add(time.Minute)
		var quit atomic.Bool
		done := make(chan struct{})
		var wg sync.WaitGroup
		t.Cleanup(func() { quit.Store(true); wg.Wait() })
		for w := 0; w < chaosCallers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 1))
				for (created.Load() < minCreated || kills.Load() < 2) && time.Now().Before(hardStop) && !quit.Load() {
					op := churn
					if rng.Intn(8) == 0 {
						op = migrate
					}
					if err := op(rng); err != nil {
						errs.add(err)
					}
				}
			}()
		}
		go func() { wg.Wait(); close(done) }()
		chaosCycles(done, func() { k.cycle(t); kills.Add(1) })
		k.checkLate(t)
		load.finish(t)

		failed := errs.list()
		var lost int
		for _, err := range failed {
			if errors.Is(err, ErrFutureTimeout) {
				lost++
			}
		}
		if len(failed) > 0 {
			t.Fatalf("%d churn/migrate operations failed, %d of them lost replies; first: %v", len(failed), lost, failed[0])
		}
		if got := created.Load(); got < minCreated {
			t.Fatalf("%d activities created, want at least %d", got, minCreated)
		}
		t.Logf("%d activities created, %d migrated, across %d kill cycles", created.Load(), migrations.Load(), kills.Load())
	})
}
