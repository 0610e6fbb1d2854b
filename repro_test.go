package repro_test

import (
	"testing"
	"time"

	"repro"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow
// end-to-end through the facade.
func TestPublicAPIQuickstart(t *testing.T) {
	env := repro.NewEnv(repro.Config{})
	defer env.Close()
	node := env.NewNode()
	h := node.NewActive("echo", repro.BehaviorFunc(
		func(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
			return args, nil
		}))
	out, err := h.CallSync("echo", repro.String("hi"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.AsString() != "hi" {
		t.Fatalf("echo = %v", out)
	}
	h.Release()
	if _, err := env.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	st := env.Stats()
	if st.Collected[repro.ReasonAcyclic] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPublicAPIDistributedCycle builds the motivating scenario on the
// paper's (scaled) Grid'5000 topology with paper TTB/TTA values,
// compressed 1000×: a cross-site cycle of activities that explicit code
// never terminates, reclaimed automatically.
func TestPublicAPIDistributedCycle(t *testing.T) {
	// Paper time in, wall time out: every paper-time duration is divided
	// by the factor (DESIGN.md §3).
	const scale = 1000
	topo := repro.Grid5000().Scaled(32) // 2+2+2 nodes, real RTTs
	env := repro.NewEnv(repro.Config{
		TTB: 30 * time.Second / scale,
		TTA: 75 * time.Second / scale,
		Transport: repro.NewSimTransport(repro.SimConfig{
			Latency: func(a, b repro.NodeID) time.Duration { return topo.Latency(a, b) / scale },
			MaxComm: topo.MaxComm() / scale,
		}),
	})
	defer env.Close()

	nodes := make([]*repro.Node, topo.NumNodes())
	for i := range nodes {
		nodes[i] = env.NewNode()
	}

	keeper := repro.BehaviorFunc(
		func(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
			if method == "hold" {
				ctx.Store("next", args)
			}
			return repro.Null(), nil
		})

	const n = 5
	handles := make([]*repro.Handle, n)
	for i := range handles {
		handles[i] = nodes[i%len(nodes)].NewActive("member", keeper)
	}
	for i, h := range handles {
		next := handles[(i+1)%n]
		if _, err := h.CallSync("hold", next.Ref(), 10*time.Second/scale); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range handles {
		h.Release()
	}
	// Collection needs O(h·TTB) + TTA ≈ a few hundred paper-seconds; the
	// timeout is 30 paper-minutes (1.8 wall-seconds).
	if _, err := env.WaitCollected(0, 30*time.Minute/scale); err != nil {
		t.Fatalf("distributed cycle not collected: %v (stats %+v)", err, env.Stats())
	}
	st := env.Stats()
	if st.Collected[repro.ReasonCyclic]+st.Collected[repro.ReasonNotified] == 0 {
		t.Fatalf("no cyclic collection: %+v", st.Collected)
	}
}

// TestPublicAPIRegistry covers the registry-root behaviour through the
// facade.
func TestPublicAPIRegistry(t *testing.T) {
	env := repro.NewEnv(repro.Config{})
	defer env.Close()
	node := env.NewNode()
	h := node.NewActive("svc", repro.BehaviorFunc(
		func(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
			return repro.Int(7), nil
		}))
	if err := env.RegisterName("the-service", h.Ref()); err != nil {
		t.Fatal(err)
	}
	h.Release()
	time.Sleep(20 * repro.DefaultTTB)
	if env.LiveActivities() != 1 {
		t.Fatal("registered service was collected")
	}
	ref, err := env.Lookup("the-service")
	if err != nil {
		t.Fatal(err)
	}
	client, err := node.HandleFor(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.CallSync("anything", repro.Null(), 5*time.Second)
	if err != nil || got.AsInt() != 7 {
		t.Fatalf("call = %v, %v", got, err)
	}
	client.Release()
	env.Unregister("the-service")
	if _, err := env.WaitCollected(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestValueConstructors sanity-checks the facade's wire constructors.
func TestValueConstructors(t *testing.T) {
	v := repro.Dict(map[string]repro.Value{
		"b":  repro.Bool(true),
		"i":  repro.Int(-4),
		"f":  repro.Float(1.5),
		"s":  repro.String("x"),
		"by": repro.Bytes([]byte{1}),
		"fs": repro.Floats([]float64{2, 3}),
		"l":  repro.List(repro.Null()),
		"r":  repro.Ref(repro.ActivityID{Node: 1, Seq: 1}),
	})
	if v.Len() != 8 {
		t.Fatalf("dict len = %d", v.Len())
	}
	if !v.Get("b").AsBool() || v.Get("i").AsInt() != -4 || v.Get("fs").AsFloats()[1] != 3 {
		t.Fatal("constructor round-trips failed")
	}
	if _, ok := v.Get("r").AsRef(); !ok {
		t.Fatal("ref constructor failed")
	}
}
