package active

// Unit and regression tests for live migration (WIRE.md §7): envelope
// round-trips, rebind-table path compression, forwarder reclamation
// accounting, and the dead-forwarder subscription path.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

func TestMigrationEnvelopeRoundTrip(t *testing.T) {
	m := migration{
		Old:  ids.ActivityID{Node: 3, Seq: 7},
		Name: "roamer",
		Kind: "test/counter",
		State: []migrationState{
			{Key: "total", Value: wire.Int(41)},
			{Key: "peer", Value: wire.Ref(ids.ActivityID{Node: 1, Seq: 2})},
			{Key: "pending", Value: wire.FutureVal(wire.FutureRef{
				ID:    ids.FutureID{Node: 3, Seq: 9},
				Owner: ids.ActivityID{Node: 3, Seq: 7},
			})},
		},
		Queue: []migrationRequest{
			{
				Sender: ids.ActivityID{Node: 2, Seq: 1},
				Future: ids.FutureID{Node: 2, Seq: 5},
				Method: "add",
				Args:   wire.Int(1),
			},
			{Sender: ids.ActivityID{Node: 4, Seq: 2}, Method: "poke", Args: wire.Null()},
		},
	}
	got, err := decodeMigration(encodeMigration(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Old != m.Old || got.Name != m.Name || got.Kind != m.Kind {
		t.Fatalf("header = %+v, want %+v", got, m)
	}
	if len(got.State) != len(m.State) || len(got.Queue) != len(m.Queue) {
		t.Fatalf("lengths = %d/%d, want %d/%d", len(got.State), len(got.Queue), len(m.State), len(m.Queue))
	}
	for i := range m.State {
		if got.State[i].Key != m.State[i].Key || !got.State[i].Value.Equal(m.State[i].Value) {
			t.Fatalf("state[%d] = %+v, want %+v", i, got.State[i], m.State[i])
		}
	}
	for i := range m.Queue {
		g, w := got.Queue[i], m.Queue[i]
		if g.Sender != w.Sender || g.Future != w.Future || g.Method != w.Method || !g.Args.Equal(w.Args) {
			t.Fatalf("queue[%d] = %+v, want %+v", i, g, w)
		}
	}
}

func TestMigrateResponseRoundTrip(t *testing.T) {
	id := ids.ActivityID{Node: 9, Seq: 4}
	got, err := decodeMigrateResponse(encodeMigrateResponse(id, nil))
	if err != nil || got != id {
		t.Fatalf("ok response = %v, %v", got, err)
	}
	_, err = decodeMigrateResponse(encodeMigrateResponse(ids.Nil, errors.New("boom")))
	if !errors.Is(err, ErrMigrationFailed) {
		t.Fatalf("failed response error = %v, want ErrMigrationFailed", err)
	}
}

func TestRebindTablePathCompression(t *testing.T) {
	e := NewEnv(Config{TTB: 10 * time.Millisecond})
	defer e.Close()
	n := e.NewNode()
	a := ids.ActivityID{Node: 10, Seq: 1}
	b := ids.ActivityID{Node: 11, Seq: 1}
	c := ids.ActivityID{Node: 12, Seq: 1}
	n.addRebind(a, b)
	n.addRebind(b, c)
	if got := n.resolveRebind(a); got != c {
		t.Fatalf("resolve(a) = %v, want %v (chain collapse)", got, c)
	}
	// The cache itself is compressed: one hop, not a walk.
	direct := ids.Nil
	for _, rb := range n.locCache.Snapshot() {
		if rb.Old == a {
			direct = rb.New
		}
	}
	if direct != c {
		t.Fatalf("cache[a] = %v, want %v (path compression)", direct, c)
	}
	// A cycle-shaped rebind (a → ... → a) degenerates to identity removal,
	// not an infinite chain.
	n.addRebind(c, a)
	if got := n.resolveRebind(a); got == a {
		return
	} else if got != n.resolveRebind(got) {
		t.Fatalf("resolve not idempotent after cycle: %v", got)
	}
}

// TestForwarderReclamation is the NumRoots regression test: after a
// migration, the rebinding of every holder, and the forwarder's TTA
// collapse, the source node's heap must hold exactly as many roots as
// before the activity existed — the forwarder's relay stub, the migrated
// state pins and the queue pins all accounted for.
func TestForwarderReclamation(t *testing.T) {
	e := NewEnv(Config{TTB: 10 * time.Millisecond, TTA: 25 * time.Millisecond})
	defer e.Close()
	n1, n2 := e.NewNode(), e.NewNode()
	rootsBefore := n1.Heap().NumRoots()

	h, err := n1.SpawnKind("c", "test/counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.CallSync("add", wire.Int(5), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mfut, err := h.Migrate(n2.ID())
	if err != nil {
		t.Fatal(err)
	}
	newRef, err := mfut.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	newID, _ := newRef.AsRef()
	if newID.Node != n2.ID() {
		t.Fatalf("migrated to %v, want %v", newID.Node, n2.ID())
	}
	// State must have survived the move before we tear everything down.
	if got, err := h.CallSync("total", wire.Null(), 5*time.Second); err != nil || got.AsInt() != 5 {
		t.Fatalf("total after migration = %v, %v", got, err)
	}
	oldID, _ := h.Ref().AsRef()
	h.Release()
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Everything is collected: forwarder gone from n1's activity table...
	if _, alive := n1.activity(oldID); alive {
		t.Fatal("forwarder still alive after collapse")
	}
	// ...and every root it held — relay stub, state pins — swept.
	waitUntil(t, func() bool { return n1.Heap().NumRoots() == rootsBefore }, 5*time.Second)
	if got := n1.Heap().NumRoots(); got != rootsBefore {
		t.Fatalf("n1 roots = %d after collapse, want %d (forwarder leaked a pin)", got, rootsBefore)
	}
}

// TestDeadForwarderFutureSubscribe pins the failure mode down: lifting a
// future whose home entries died with the collapsed forwarder must fail
// fast with ErrFutureUnavailable — never hang.
func TestDeadForwarderFutureSubscribe(t *testing.T) {
	e := NewEnv(Config{TTB: 10 * time.Millisecond, TTA: 25 * time.Millisecond})
	defer e.Close()
	n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()
	h, err := n1.SpawnKind("c", "test/counter")
	if err != nil {
		t.Fatal(err)
	}
	oldID, _ := h.Ref().AsRef()
	mfut, err := h.Migrate(n2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfut.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if _, err := e.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// A stale first-class future reference naming an entry that died with
	// the forwarder: the home node (n1) answers the subscription with a
	// failure instead of silence.
	probe := n3.NewActive("probe", relay{})
	defer probe.Release()
	fut, err := probe.Future(wire.FutureVal(wire.FutureRef{
		ID:    ids.FutureID{Node: n1.ID(), Seq: 999},
		Owner: oldID,
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = fut.Wait(5 * time.Second)
	if !errors.Is(err, ErrFutureUnavailable) {
		t.Fatalf("late subscribe through dead forwarder = %v, want ErrFutureUnavailable", err)
	}
}

// TestMigrateUnknownKindFailsCleanly: a destination that cannot
// re-instantiate the behavior refuses the move and the activity keeps
// serving at home, queue intact.
func TestMigrateUnknownKindFailsCleanly(t *testing.T) {
	RegisterBehavior("test/ephemeral", func() Behavior { return migCounter{} })
	e := NewEnv(Config{TTB: 10 * time.Millisecond})
	defer e.Close()
	n1, n2 := e.NewNode(), e.NewNode()
	h, err := n1.SpawnKind("c", "test/ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := h.CallSync("add", wire.Int(3), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Simulate a foreign process that never registered the kind.
	behaviorRegistry.mu.Lock()
	delete(behaviorRegistry.kinds, "test/ephemeral")
	behaviorRegistry.mu.Unlock()
	defer RegisterBehavior("test/ephemeral", func() Behavior { return migCounter{} })

	mfut, err := h.Migrate(n2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfut.Wait(5 * time.Second); !errors.Is(err, ErrMigrationFailed) {
		t.Fatalf("migrate with unknown kind = %v, want ErrMigrationFailed", err)
	}
	// Still serving at home, state intact.
	if got, err := h.CallSync("total", wire.Null(), 5*time.Second); err != nil || got.AsInt() != 3 {
		t.Fatalf("post-failure total = %v, %v", got, err)
	}
	if id, _ := h.Ref().AsRef(); id.Node != n1.ID() {
		t.Fatalf("activity moved despite failure")
	}
}

// TestMigrateNotMigratable: plain activities (no registered kind) refuse
// to move, both via Handle.Migrate and Context.MigrateTo.
func TestMigrateNotMigratable(t *testing.T) {
	e := NewEnv(Config{TTB: 10 * time.Millisecond})
	defer e.Close()
	n1, n2 := e.NewNode(), e.NewNode()
	h := n1.NewActive("plain", relay{})
	defer h.Release()
	mfut, err := h.Migrate(n2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfut.Wait(5 * time.Second); !errors.Is(err, ErrNotMigratable) {
		t.Fatalf("migrate plain activity = %v, want ErrNotMigratable", err)
	}
}

// TestMigrateToSelfKeepsServing: migrating an activity to the node it
// already lives on resolves as a no-op with the unchanged identity —
// and the activity must keep serving afterwards. Regression: the serve
// loop used to exit as if the queue had moved (no forwarder installed,
// nothing moved), leaving a live activity permanently mute and every
// later call timing out.
func TestMigrateToSelfKeepsServing(t *testing.T) {
	RegisterBehavior("test/self-counter", func() Behavior { return migCounter{} })
	e := NewEnv(Config{TTB: 10 * time.Millisecond})
	defer e.Close()
	n1 := e.NewNode()
	h, err := n1.SpawnKind("c", "test/self-counter")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := h.CallSync("add", wire.Int(3), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mfut, err := h.Migrate(n1.ID())
	if err != nil {
		t.Fatal(err)
	}
	v, err := mfut.Wait(5 * time.Second)
	if err != nil {
		t.Fatalf("self-migration = %v, want no-op success", err)
	}
	if id, _ := v.AsRef(); id != mustRefID(t, h.Ref()) {
		t.Fatalf("self-migration resolved with %v, want unchanged identity %v", id, h.Ref())
	}
	if got, err := h.CallSync("total", wire.Null(), 5*time.Second); err != nil || got.AsInt() != 3 {
		t.Fatalf("post-self-migration total = %v, %v; want 3, nil", got, err)
	}
}

// migSharer calls a slow peer and hands the unresolved future to a
// co-located sink activity, then migrates away: the sink (a local holder
// of the emigrated home entry) must keep its resolution pin.
type migSharer struct{}

func (migSharer) Serve(ctx *Context, method string, args wire.Value) (wire.Value, error) {
	if method != "begin" {
		return wire.Null(), errors.New("migSharer: unknown method " + method)
	}
	fut, err := ctx.Call(args.Get("peer"), "slowecho", args.Get("val"))
	if err != nil {
		return wire.Null(), err
	}
	fr, _ := fut.WireFutureRef()
	return wire.Null(), ctx.Send(args.Get("to"), "set:fut", wire.FutureVal(fr))
}

// TestMigratedOwnerKeepsLocalHolderPins is the review regression for the
// emigrated-entry lifecycle: activity A shares an unresolved future with
// co-located B and migrates away; when the value (a reference) arrives,
// B's pin must keep the referenced activity alive until B consumes it —
// the forwarder-side bookkeeping must not discard local holders' pins.
func TestMigratedOwnerKeepsLocalHolderPins(t *testing.T) {
	RegisterBehavior("test/sharer", func() Behavior { return migSharer{} })
	e := NewEnv(Config{TTB: 10 * time.Millisecond, TTA: 25 * time.Millisecond})
	defer e.Close()
	n1, n2, n3 := e.NewNode(), e.NewNode(), e.NewNode()

	// C: the activity whose liveness depends on B's value pin.
	hc := n3.NewActive("c", relay{})
	// The slow peer parks on a gate so the shared future stays unresolved
	// across the migration by construction.
	slowGate := make(chan struct{})
	slow := n3.NewActive("slow", BehaviorFunc(func(ctx *Context, method string, args wire.Value) (wire.Value, error) {
		<-slowGate
		return args, nil
	}))
	defer slow.Release()
	sink := n1.NewActive("sink", BehaviorFunc(func(ctx *Context, method string, args wire.Value) (wire.Value, error) {
		switch method {
		case "set:fut":
			ctx.Store("fut", args)
			return wire.Null(), nil
		case "finish":
			f, err := ctx.Future(ctx.Load("fut"))
			if err != nil {
				return wire.Null(), err
			}
			return f.Wait(10 * time.Second)
		}
		return wire.Null(), errors.New("sink: unknown method " + method)
	}))
	defer sink.Release()
	h, err := n1.SpawnKind("sharer", "test/sharer")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()

	args := wire.Dict(map[string]wire.Value{
		"peer": slow.Ref(),
		"to":   sink.Ref(),
		"val":  hc.Ref(),
	})
	if _, err := h.CallSync("begin", args, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	mfut, err := h.Migrate(n2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfut.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Let the slow call resolve: the value (= Ref(C)) lands at n1 and
	// binds to the sink's pin, observable as a new heap root there. Then
	// drop C's only root and wait out several TTAs: only the sink's
	// unconsumed-value pin keeps C alive now.
	rootsBefore := n1.Heap().NumRoots()
	close(slowGate)
	waitUntil(t, func() bool { return n1.Heap().NumRoots() > rootsBefore }, 10*time.Second)
	hc.Release()
	dgcSettle(t, e, n3)
	if _, alive := e.activity(mustRefID(t, hc.Ref())); !alive {
		t.Fatal("C collected while a local holder's future value still pins it")
	}
	// The sink consumes the value: it really is C's reference.
	got, err := sink.CallSync("finish", wire.Null(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := got.AsRef(); id != mustRefID(t, hc.Ref()) {
		t.Fatalf("sink consumed %v, want C's reference", got)
	}
}

func mustRefID(t *testing.T, v wire.Value) ids.ActivityID {
	t.Helper()
	id, ok := v.AsRef()
	if !ok {
		t.Fatalf("not a ref: %v", v)
	}
	return id
}
