// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus ablations for the design choices called out in
// DESIGN.md. Absolute numbers depend on the simulated substrate; the
// quantities to compare with the paper are the *shapes* recorded in
// EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/cdmdgc"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/localgc"
	"repro/internal/nas"
	"repro/internal/rmidgc"
	"repro/internal/sim"
	"repro/internal/torture"
	"repro/internal/wire"
)

// benchKernelConfig returns paper-parameter NAS runs compressed so a full
// table regenerates in seconds. The compression factor is bounded by the
// paper's §4.2 hard-real-time caveat: scaling shrinks the *real* TTA
// deadline while queueing and compute delays do not shrink with it, so
// too aggressive a factor makes a loaded benchmark machine miss deadlines
// and wrongly collect busy activities — the exact failure mode the paper
// warns about (and the reason RMI's default lease went from one minute to
// one hour). 250× keeps the real TTA at ~244 ms, a comfortable margin.
func benchKernelConfig(k nas.Kernel, dgc bool) nas.RunConfig {
	cfg := nas.PaperParams(k)
	cfg.ScaleFactor = 250
	cfg.DGC = dgc
	return cfg
}

// BenchmarkFig8BandwidthOverhead regenerates the Fig. 8 rows: total
// traffic without and with the DGC, per kernel. Reported metrics:
// MB_noDGC, MB_DGC, overhead_pct.
func BenchmarkFig8BandwidthOverhead(b *testing.B) {
	for _, k := range []nas.Kernel{nas.KernelCG, nas.KernelEP, nas.KernelFT} {
		k := k
		b.Run(string(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := nas.Run(benchKernelConfig(k, false))
				if err != nil {
					b.Fatal(err)
				}
				with, err := nas.Run(benchKernelConfig(k, true))
				if err != nil {
					b.Fatal(err)
				}
				if !base.Verified || !with.Verified {
					b.Fatal("kernel verification failed")
				}
				noDGC := float64(base.TotalBytes())
				withDGC := float64(with.TotalBytes())
				b.ReportMetric(noDGC/1e6, "MB_noDGC")
				b.ReportMetric(withDGC/1e6, "MB_DGC")
				b.ReportMetric((withDGC-noDGC)/noDGC*100, "overhead_pct")
			}
		})
	}
}

// BenchmarkFig9TimeOverhead regenerates the Fig. 9 rows: benchmark time
// without/with DGC and the time the DGC needs to collect all activities
// after the result. Reported metrics: s_noDGC, s_DGC, dgc_collect_s and
// collect_beats (the paper observes 15–17 beats for 256 activities).
func BenchmarkFig9TimeOverhead(b *testing.B) {
	for _, k := range []nas.Kernel{nas.KernelCG, nas.KernelEP, nas.KernelFT} {
		k := k
		b.Run(string(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := nas.Run(benchKernelConfig(k, false))
				if err != nil {
					b.Fatal(err)
				}
				with, err := nas.Run(benchKernelConfig(k, true))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(base.AppTime.Seconds(), "s_noDGC")
				b.ReportMetric(with.AppTime.Seconds(), "s_DGC")
				b.ReportMetric(with.DGCTime.Seconds(), "dgc_collect_s")
				b.ReportMetric(float64(with.DGCTime)/float64(30*time.Second), "collect_beats")
			}
		})
	}
}

// BenchmarkFig10aTorture regenerates Fig. 10(a): the full-scale 6 401-
// activity torture test with TTB=30s, TTA=150s, on the deterministic DES.
// Metrics: collect_done_s (paper: within the 2 400 s plot) and DGC_MB
// (paper: 1 699 MB over RMI).
func BenchmarkFig10aTorture(b *testing.B) {
	benchTorture(b, 30*time.Second, 150*time.Second)
}

// BenchmarkFig10bTorture regenerates Fig. 10(b): TTB=300s, TTA=1500s —
// the 10× slower beat stretches collection by roughly an order of
// magnitude (paper: ~18 000 s; 2 063 MB).
func BenchmarkFig10bTorture(b *testing.B) {
	benchTorture(b, 300*time.Second, 1500*time.Second)
}

func benchTorture(b *testing.B, ttb, tta time.Duration) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := torture.Run(torture.PaperParams(ttb, tta))
		if !res.CollectedAll {
			b.Fatalf("torture incomplete: %v", res.Reasons)
		}
		b.ReportMetric(res.LastCollectedAt.Seconds(), "collect_done_s")
		b.ReportMetric(float64(res.Traffic.DGCBytes)/1e6, "DGC_MB")
		b.ReportMetric(float64(res.Traffic.AppBytes)/1e6, "app_MB")
	}
}

// BenchmarkDetectionLatencyVsHeight validates the §4.3 complexity claim:
// the time to detect and collect a garbage cycle grows as O(h·TTB) (+TTA),
// h being the spanning-tree height — rings of increasing size on the
// Grid'5000 latency matrix. Metric: collect_beats.
func BenchmarkDetectionLatencyVsHeight(b *testing.B) {
	topo := grid.Grid5000()
	for _, h := range []int{2, 4, 8, 16, 32, 64} {
		h := h
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := sim.NewWorld(sim.Config{
					TTB:     30 * time.Second,
					TTA:     150 * time.Second,
					Seed:    int64(i + 1),
					Latency: topo.Latency,
				})
				ring := make([]*sim.Activity, h)
				for j := range ring {
					ring[j] = w.NewActivity(ids.NodeID(j%topo.NumNodes() + 1))
				}
				for j := range ring {
					ring[j].Link(ring[(j+1)%h].ID())
				}
				ok, took := w.RunUntilCollected(h, 24*time.Hour)
				if !ok {
					b.Fatalf("ring of %d not collected", h)
				}
				b.ReportMetric(took.Seconds()/30, "collect_beats")
			}
		})
	}
}

// BenchmarkConsensusPropagationAblation quantifies the §4.3 dying-wave
// optimization: with the wave a compound cycle dies after one consensus;
// without it, each consensus frees only the detecting activity and the
// sub-cycles start over. Metric: collect_beats (and consensus count via
// events).
func BenchmarkConsensusPropagationAblation(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			var consensuses int
			w := sim.NewWorld(sim.Config{
				TTB:                         30 * time.Second,
				TTA:                         150 * time.Second,
				Seed:                        int64(i + 1),
				DisableConsensusPropagation: disable,
				OnEvent: func(ev core.Event) {
					if ev.Kind == core.EventConsensusDetected {
						consensuses++
					}
				},
			})
			const n = 24
			ring := make([]*sim.Activity, n)
			for j := range ring {
				ring[j] = w.NewActivity(ids.NodeID(j%8 + 1))
			}
			for j := range ring {
				ring[j].Link(ring[(j+1)%n].ID())
				if j%4 == 0 { // chords create sub-cycles
					ring[j].Link(ring[(j+n/2)%n].ID())
				}
			}
			ok, took := w.RunUntilCollected(n, 96*time.Hour)
			if !ok {
				b.Fatalf("not collected (disable=%v)", disable)
			}
			b.ReportMetric(took.Seconds()/30, "collect_beats")
			b.ReportMetric(float64(consensuses), "consensuses")
		}
	}
	b.Run("wave", func(b *testing.B) { run(b, false) })
	b.Run("no-wave", func(b *testing.B) { run(b, true) })
}

// BenchmarkBaselineRMICycleLeak compares the paper's collector with the
// RMI-style reference-listing baseline on the same workload: chains are
// collected by both, cycles only by the complete DGC. Metric: leaked
// activities after a generous grace period.
func BenchmarkBaselineRMICycleLeak(b *testing.B) {
	const (
		cycles    = 20
		cycleLen  = 4
		chains    = 20
		chainLen  = 4
		perNode   = 8
		graceTime = 4 * time.Hour
	)
	build := func(link func(fromIdx, toIdx int, cyclic bool), total *int) {
		idx := 0
		for c := 0; c < cycles; c++ {
			first := idx
			for k := 0; k < cycleLen; k++ {
				if k < cycleLen-1 {
					link(idx, idx+1, true)
				} else {
					link(idx, first, true)
				}
				idx++
			}
		}
		for c := 0; c < chains; c++ {
			for k := 0; k < chainLen; k++ {
				if k < chainLen-1 {
					link(idx, idx+1, false)
				}
				idx++
			}
		}
		*total = idx
	}

	b.Run("complete-dgc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := sim.NewWorld(sim.Config{TTB: 30 * time.Second, TTA: 150 * time.Second, Seed: 1})
			acts := make([]*sim.Activity, cycles*cycleLen+chains*chainLen)
			for j := range acts {
				acts[j] = w.NewActivity(ids.NodeID(j/perNode + 1))
			}
			var total int
			build(func(from, to int, _ bool) { acts[from].Link(acts[to].ID()) }, &total)
			w.RunFor(graceTime)
			leaked := w.Live()
			b.ReportMetric(float64(leaked), "leaked")
			if leaked != 0 {
				b.Fatalf("complete DGC leaked %d activities", leaked)
			}
		}
	})
	b.Run("rmi-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := rmidgc.NewWorld(rmidgc.Config{
				LeaseDuration: 60 * time.Second,
				RenewEvery:    30 * time.Second,
			}, 1, nil)
			acts := make([]*rmidgc.Activity, cycles*cycleLen+chains*chainLen)
			for j := range acts {
				acts[j] = w.NewActivity(ids.NodeID(j/perNode + 1))
			}
			var total int
			build(func(from, to int, _ bool) { acts[from].Link(acts[to].ID()) }, &total)
			w.RunFor(graceTime)
			leaked := w.Live()
			b.ReportMetric(float64(leaked), "leaked")
			if leaked != cycles*cycleLen {
				b.Fatalf("baseline leak = %d, want exactly the %d cycle members",
					leaked, cycles*cycleLen)
			}
		}
	})
}

// BenchmarkAdaptiveBeats quantifies the §7.1 future-work extension
// implemented here (dynamic TTB): a garbage 16-ring plus a busy
// root→chain under three beat policies. Adaptive approaches the fast
// fixed beat's collection latency while spending far fewer messages on
// the busy (uncollectable) part of the graph.
func BenchmarkAdaptiveBeats(b *testing.B) {
	run := func(b *testing.B, adaptive bool, fixedTTB time.Duration) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := sim.Config{TTB: fixedTTB, TTA: 300 * time.Second, Seed: int64(i + 1)}
			if adaptive {
				cfg.Adaptive = core.Adaptive{
					Enabled: true,
					MinTTB:  15 * time.Second,
					MaxTTB:  120 * time.Second,
				}
			}
			w := sim.NewWorld(cfg)
			const n = 16
			ring := make([]*sim.Activity, n)
			for j := range ring {
				ring[j] = w.NewActivity(ids.NodeID(j%8 + 1))
			}
			for j := range ring {
				ring[j].Link(ring[(j+1)%n].ID())
			}
			// A busy root holding a chain: permanent, uncollectable load.
			root := w.NewActivity(9)
			root.SetBusy()
			prev := root
			for j := 0; j < 8; j++ {
				next := w.NewActivity(ids.NodeID(10 + j%4))
				prev.Link(next.ID())
				prev = next
			}
			ok, took := w.RunUntilCollected(n, 48*time.Hour)
			if !ok {
				b.Fatal("ring not collected")
			}
			w.RunFor(2 * time.Hour) // steady-state traffic for the busy part
			b.ReportMetric(took.Seconds(), "collect_s")
			b.ReportMetric(float64(w.Traffic().DGCMessages), "dgc_msgs")
		}
	}
	b.Run("fixed-60s", func(b *testing.B) { run(b, false, 60*time.Second) })
	b.Run("fixed-15s", func(b *testing.B) { run(b, false, 15*time.Second) })
	b.Run("adaptive-15..120s", func(b *testing.B) { run(b, true, 60*time.Second) })
}

// BenchmarkCDMMessageGrowth quantifies the §6 comparison with Veiga &
// Ferreira-style cycle detection messages (internal/cdmdgc): their
// message size grows linearly with the traversed graph, while this
// paper's DGC message records stay within core.MaxMessageSize whatever
// the system size. Metrics: max_msg_B for the CDM comparator vs
// fixed_msg_B, that bound.
func BenchmarkCDMMessageGrowth(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		n := n
		b.Run(fmt.Sprintf("cycle=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := cdmdgc.NewWorld(cdmdgc.Config{
					DetectEvery: 30 * time.Second,
					HopLatency:  10 * time.Millisecond,
					Seed:        int64(i + 1),
				})
				acts := make([]*cdmdgc.Activity, n)
				for j := range acts {
					acts[j] = w.NewActivity(ids.ActivityID{Node: 1, Seq: uint32(j + 1)})
				}
				for j := range acts {
					acts[j].Link(acts[(j+1)%n])
				}
				w.RunFor(48 * time.Hour)
				if w.Collected() != n {
					b.Fatalf("CDM comparator failed to collect the %d-ring", n)
				}
				b.ReportMetric(float64(w.MaxCDMBytes), "max_msg_B")
				b.ReportMetric(float64(core.MaxMessageSize), "fixed_msg_B")
				b.ReportMetric(float64(w.CDMBytes)/1e3, "total_KB")
			}
		})
	}
}

// BenchmarkMinHeightTree quantifies the §7.2 extension on dense graphs:
// depth-aware re-adoption flattens the reverse spanning tree (metric:
// tree_height at collection) and with it the conjunction path to the
// originator (metric: collect_beats).
func BenchmarkMinHeightTree(b *testing.B) {
	run := func(b *testing.B, minHeight bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			w := sim.NewWorld(sim.Config{
				TTB:           30 * time.Second,
				TTA:           150 * time.Second,
				Seed:          int64(i + 1),
				MinHeightTree: minHeight,
			})
			const n = 24
			acts := make([]*sim.Activity, n)
			for j := range acts {
				acts[j] = w.NewActivity(ids.NodeID(j%8 + 1))
			}
			for j := range acts {
				for k := range acts {
					if j != k {
						acts[j].Link(acts[k].ID())
					}
				}
			}
			ok, took := w.RunUntilCollected(n, 8*time.Hour)
			if !ok {
				b.Fatal("complete graph not collected")
			}
			// Final tree height by walking parent chains.
			byID := make(map[ids.ActivityID]*sim.Activity, n)
			for _, a := range acts {
				byID[a.ID()] = a
			}
			height := 0
			for _, a := range acts {
				depth, cur := 0, a
				for !cur.Collector().Parent().IsNil() && depth <= n {
					next, okP := byID[cur.Collector().Parent()]
					if !okP {
						break
					}
					cur = next
					depth++
				}
				if depth > height {
					height = depth
				}
			}
			b.ReportMetric(float64(height), "tree_height")
			b.ReportMetric(took.Seconds()/30, "collect_beats")
		}
	}
	b.Run("fastest-response", func(b *testing.B) { run(b, false) })
	b.Run("min-height", func(b *testing.B) { run(b, true) })
}

// --- Micro-benchmarks of the hot paths --------------------------------------

// BenchmarkDGCMessageCodec measures the DGC message record's encoding
// (§4.3 relies on bounded-size, cheap messages).
func BenchmarkDGCMessageCodec(b *testing.B) {
	msg := core.Message{
		Sender:    ids.ActivityID{Node: 3, Seq: 9},
		Clock:     lamport.Clock{Value: 77, Owner: ids.ActivityID{Node: 1, Seq: 2}},
		Consensus: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := core.EncodeMessage(msg)
		if _, err := core.DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorTick measures one full heartbeat round of a collector
// with 64 referencers and 64 referenced activities: receiving every
// referencer's message plus the local Tick (per-beat cost is linear in
// the neighbourhood, §4.3). The referencers never agree, so the collector
// stays live for any number of iterations.
func BenchmarkCollectorTick(b *testing.B) {
	now := time.Unix(0, 0)
	cfg := core.Config{TTB: 30 * time.Second, TTA: 150 * time.Second}
	self := ids.ActivityID{Node: 1, Seq: 1}
	c := core.New(self, cfg, func() bool { return true }, now)
	const peers = 64
	msgs := make([]core.Message, peers)
	for i := 0; i < peers; i++ {
		peer := ids.ActivityID{Node: 2, Seq: uint32(i + 1)}
		c.AddReferenced(peer, now)
		msgs[i] = core.Message{Sender: peer, Clock: lamport.Clock{Value: 1, Owner: peer}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(30 * time.Second)
		for _, m := range msgs {
			c.HandleMessage(m, now)
		}
		res := c.Tick(now)
		if res.Terminated {
			b.Fatal("collector terminated mid-benchmark")
		}
	}
}

// BenchmarkWireEncodeDecode measures the serialization boundary every
// inter-activity value crosses.
func BenchmarkWireEncodeDecode(b *testing.B) {
	v := wire.Dict(map[string]wire.Value{
		"vec":  wire.Floats(make([]float64, 256)),
		"meta": wire.List(wire.Int(1), wire.String("x"), wire.Ref(ids.ActivityID{Node: 1, Seq: 2})),
	})
	var d wire.Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := wire.Encode(nil, v)
		if _, err := d.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapSweep measures the local collection that runs every TTB,
// over a heap of 1000 rooted pins: a sweep visits only the pins that
// became unrooted since the last one, so here it frees nothing.
func BenchmarkHeapSweep(b *testing.B) {
	h := localgc.New(nil)
	owner := ids.ActivityID{Node: 1, Seq: 1}
	for i := 0; i < 1000; i++ {
		v := wire.List(
			wire.Int(int64(i)),
			wire.Ref(ids.ActivityID{Node: 2, Seq: uint32(i%64 + 1)}),
			wire.Dict(map[string]wire.Value{"s": wire.String("payload")}),
		)
		ref := h.Intern(owner, v)
		h.AddRoot(ref)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := h.Collect()
		if st.Freed != 0 {
			b.Fatal("rooted pins were freed")
		}
	}
}

// --- Dispatch-layer benchmarks (typed v2 API vs dynamic substrate) ----------

// benchCallEnv returns an environment tuned for dispatch measurement: the
// DGC is off so the numbers isolate the calling path (marshaling,
// envelope codec, queueing, future resolution), not collection beats.
func benchCallEnv(b *testing.B) *repro.Env {
	b.Helper()
	env := repro.NewEnv(repro.Config{DisableDGC: true})
	b.Cleanup(env.Close)
	return env
}

// benchReq/benchResp give the typed and dynamic benchmarks the same wire
// shape (a three-entry dict in, a two-entry dict out) so the delta is the
// reflection codec plus generic plumbing, nothing else.
type benchReq struct {
	A   int64  `wire:"a"`
	B   int64  `wire:"b"`
	Tag string `wire:"tag"`
}

type benchResp struct {
	Sum int64  `wire:"sum"`
	Tag string `wire:"tag"`
}

// BenchmarkDynamicCall measures a synchronous round-trip through the
// stringly-typed v1 surface: hand-rolled wire.Value dicts and
// switch-on-method-name dispatch.
func BenchmarkDynamicCall(b *testing.B) {
	env := benchCallEnv(b)
	h := env.NewNode().NewActive("dyn", repro.BehaviorFunc(
		func(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
			switch method {
			case "add":
				return repro.Dict(map[string]repro.Value{
					"sum": repro.Int(args.Get("a").AsInt() + args.Get("b").AsInt()),
					"tag": args.Get("tag"),
				}), nil
			default:
				return repro.Null(), fmt.Errorf("unknown method %q", method)
			}
		}))
	defer h.Release()
	args := repro.Dict(map[string]repro.Value{
		"a": repro.Int(19), "b": repro.Int(23), "tag": repro.String("bench"),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := h.CallSync("add", args, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if out.Get("sum").AsInt() != 42 {
			b.Fatalf("sum = %v", out.Get("sum"))
		}
	}
}

// BenchmarkTypedCall measures the same round-trip through the typed v2
// surface: generic stub, struct⇄wire codec, typed future. The difference
// to BenchmarkDynamicCall is the price of the typed façade.
func BenchmarkTypedCall(b *testing.B) {
	env := benchCallEnv(b)
	h := env.NewNode().NewActive("typed", repro.NewService(
		repro.Method("add", func(ctx *repro.Context, req benchReq) (benchResp, error) {
			return benchResp{Sum: req.A + req.B, Tag: req.Tag}, nil
		})))
	defer h.Release()
	stub := repro.NewStub[benchReq, benchResp](h, "add")
	req := benchReq{A: 19, B: 23, Tag: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := stub.CallSync(req, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Sum != 42 {
			b.Fatalf("sum = %d", resp.Sum)
		}
	}
}

// BenchmarkGroupBroadcast measures the group fan-out path: one Broadcast
// to 16 members across 4 nodes plus WaitAll on every reply.
func BenchmarkGroupBroadcast(b *testing.B) {
	env := benchCallEnv(b)
	nodes := []*repro.Node{env.NewNode(), env.NewNode(), env.NewNode(), env.NewNode()}
	svc := repro.NewService(
		repro.Method("add", func(ctx *repro.Context, req benchReq) (benchResp, error) {
			return benchResp{Sum: req.A + req.B, Tag: req.Tag}, nil
		}))
	const members = 16
	handles := make([]*repro.Handle, members)
	for i := range handles {
		handles[i] = nodes[i%len(nodes)].NewActive(fmt.Sprintf("g-%d", i), svc)
	}
	g := repro.NewGroup[benchReq, benchResp]("add", handles...)
	defer g.Release()
	req := benchReq{A: 19, B: 23, Tag: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg, err := g.Broadcast(req)
		if err != nil {
			b.Fatal(err)
		}
		replies, err := fg.WaitAll(30 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if len(replies) != members || replies[members-1].Sum != 42 {
			b.Fatalf("replies = %v", replies)
		}
	}
	b.ReportMetric(float64(members), "fanout")
}

// BenchmarkHandleParallel measures handle churn from many goroutines on
// one node with the DGC running: each iteration makes a handle to one of
// 16 actors on a second node, calls it and releases it. Every handle
// stub and every pinned reply of one node has the same owner, the node's
// root referencer, so this is the run that shows contention on that
// owner's heap shard and collector.
func BenchmarkHandleParallel(b *testing.B) {
	env := repro.NewEnv(repro.Config{TTB: 20 * time.Millisecond, TTA: 100 * time.Millisecond})
	b.Cleanup(env.Close)
	caller, callee := env.NewNode(), env.NewNode()
	refs := make([]repro.Value, 16)
	for i := range refs {
		h := callee.NewActive(fmt.Sprintf("p-%d", i), repro.BehaviorFunc(
			func(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
				return ctx.Self(), nil
			}))
		defer h.Release()
		refs[i] = h.Ref()
	}
	var next atomic.Uint32
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ref := refs[next.Add(1)%uint32(len(refs))]
		for pb.Next() {
			hc, err := caller.HandleFor(ref)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := hc.CallSync("self", repro.Null(), 30*time.Second); err != nil {
				b.Fatal(err)
			}
			hc.Release()
		}
	})
}

// benchCrossNodeCall measures a synchronous typed round-trip where the
// caller's handle is anchored on a different node than the callee, so
// every request and future update actually traverses the environment's
// transport (the same-node benchmarks above take the intra-node direct
// path and never touch it).
func benchCrossNodeCall(b *testing.B, env *repro.Env) {
	b.Helper()
	caller, callee := env.NewNode(), env.NewNode()
	h := callee.NewActive("remote", repro.NewService(
		repro.Method("add", func(ctx *repro.Context, req benchReq) (benchResp, error) {
			return benchResp{Sum: req.A + req.B, Tag: req.Tag}, nil
		})))
	defer h.Release()
	hc, err := caller.HandleFor(h.Ref())
	if err != nil {
		b.Fatal(err)
	}
	defer hc.Release()
	stub := repro.NewStub[benchReq, benchResp](hc, "add")
	req := benchReq{A: 19, B: 23, Tag: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := stub.CallSync(req, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Sum != 42 {
			b.Fatalf("sum = %d", resp.Sum)
		}
	}
}

// BenchmarkCrossNodeCall is the simnet baseline of the cross-node
// round-trip; BenchmarkTCPCall is the same exchange over real TCP.
func BenchmarkCrossNodeCall(b *testing.B) {
	benchCrossNodeCall(b, benchCallEnv(b))
}

// BenchmarkTCPCall measures the cross-node typed round-trip over the TCP
// backend: both the request and the future update cross a real loopback
// connection with length-prefixed framing.
func BenchmarkTCPCall(b *testing.B) {
	tr, err := repro.NewTCPTransport(repro.TCPConfig{})
	if err != nil {
		b.Fatal(err)
	}
	env := repro.NewEnv(repro.Config{DisableDGC: true, Transport: tr})
	b.Cleanup(env.Close)
	benchCrossNodeCall(b, env)
}

// benchBroadcast measures a one-to-many Broadcast plus WaitAll where the
// group handles are re-anchored on a dedicated caller node, so the fan-out
// and every reply traverse the transport.
func benchBroadcast(b *testing.B, env *repro.Env) {
	b.Helper()
	caller := env.NewNode()
	nodes := []*repro.Node{env.NewNode(), env.NewNode(), env.NewNode(), env.NewNode()}
	svc := repro.NewService(
		repro.Method("add", func(ctx *repro.Context, req benchReq) (benchResp, error) {
			return benchResp{Sum: req.A + req.B, Tag: req.Tag}, nil
		}))
	const members = 16
	handles := make([]*repro.Handle, members)
	for i := range handles {
		local := nodes[i%len(nodes)].NewActive(fmt.Sprintf("g-%d", i), svc)
		defer local.Release()
		remote, err := caller.HandleFor(local.Ref())
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = remote
	}
	g := repro.NewGroup[benchReq, benchResp]("add", handles...)
	defer g.Release()
	req := benchReq{A: 19, B: 23, Tag: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg, err := g.Broadcast(req)
		if err != nil {
			b.Fatal(err)
		}
		replies, err := fg.WaitAll(30 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if len(replies) != members || replies[members-1].Sum != 42 {
			b.Fatalf("replies = %v", replies)
		}
	}
	b.ReportMetric(float64(members), "fanout")
}

// BenchmarkCrossNodeBroadcast is the simnet baseline of the cross-node
// fan-out; BenchmarkTCPBroadcast is the same fan-out over real TCP.
func BenchmarkCrossNodeBroadcast(b *testing.B) {
	benchBroadcast(b, benchCallEnv(b))
}

// BenchmarkTCPBroadcast measures the 16-member cross-node Broadcast over
// the TCP backend: 16 requests and 16 future updates per iteration, each
// on its own persistent per-pair connection.
func BenchmarkTCPBroadcast(b *testing.B) {
	tr, err := repro.NewTCPTransport(repro.TCPConfig{})
	if err != nil {
		b.Fatal(err)
	}
	env := repro.NewEnv(repro.Config{DisableDGC: true, Transport: tr})
	b.Cleanup(env.Close)
	benchBroadcast(b, env)
}

// BenchmarkCrossNodeBroadcastBatched is the cross-node fan-out with the
// PR 3 batching path enabled: members sharing a destination node travel
// in one batch frame (4 frames for 16 members over 4 nodes), and future
// updates racing back over a busy pair coalesce the same way.
func BenchmarkCrossNodeBroadcastBatched(b *testing.B) {
	env := repro.NewEnv(repro.Config{DisableDGC: true, BatchWindow: 200 * time.Microsecond})
	b.Cleanup(env.Close)
	benchBroadcast(b, env)
}

// BenchmarkTCPBroadcastBatched is the batched fan-out over real TCP: the
// frame+syscall count per iteration drops from 32 writes to the number of
// distinct (pair, flush) windows.
func BenchmarkTCPBroadcastBatched(b *testing.B) {
	tr, err := repro.NewTCPTransport(repro.TCPConfig{})
	if err != nil {
		b.Fatal(err)
	}
	env := repro.NewEnv(repro.Config{DisableDGC: true, Transport: tr, BatchWindow: 200 * time.Microsecond})
	b.Cleanup(env.Close)
	benchBroadcast(b, env)
}

// BenchmarkTCPCallBatched measures the price a sequential round-trip pays
// for an enabled (but useless to it) batching path: requests and future
// updates are urgent, so the only overhead is the flusher's lane handoff.
func BenchmarkTCPCallBatched(b *testing.B) {
	tr, err := repro.NewTCPTransport(repro.TCPConfig{})
	if err != nil {
		b.Fatal(err)
	}
	env := repro.NewEnv(repro.Config{DisableDGC: true, Transport: tr, BatchWindow: 200 * time.Microsecond})
	b.Cleanup(env.Close)
	benchCrossNodeCall(b, env)
}

// BenchmarkSimBeat measures the DES harness: one TTB of a 512-activity
// complete-ring world.
func BenchmarkSimBeat(b *testing.B) {
	w := sim.NewWorld(sim.Config{TTB: 30 * time.Second, TTA: 150 * time.Second, Seed: 1})
	const n = 512
	acts := make([]*sim.Activity, n)
	for i := range acts {
		acts[i] = w.NewActivity(ids.NodeID(i%16 + 1))
	}
	for i := range acts {
		acts[i].Link(acts[(i+1)%n].ID())
	}
	// Keep one member busy so the ring never terminates.
	acts[0].SetBusy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunFor(30 * time.Second)
	}
}

// --- First-class future benchmarks (PR 4) -----------------------------------

// pipeWork is the per-stage work of the pipeline benchmarks: a blocking
// delay, modelling the I/O- or downstream-bound service time of a real
// middleware stage. The quantity under test is stage *occupancy* — how
// long one in-flight item monopolizes a stage's single-threaded serve
// loop — which is exactly what forwarded futures reclaim (and which a
// CPU spin could not show on a single-core runner).
const pipeStageDelay = 500 * time.Microsecond

func pipeWork(x int64) int64 {
	time.Sleep(pipeStageDelay)
	return x*1664525 + 1013904223
}

// pipeWire connects a stage to its successor.
type pipeWire struct {
	Next repro.Value `wire:"next"`
	Last bool        `wire:"last"`
}

// pipelineStage returns a 4-stage chain member. With forward=true a
// non-final stage returns the *future* of its downstream call (the
// first-class shape: the stage is free again after its own work); with
// forward=false it waits for the downstream result at every hop (the
// baseline the paper's §5–§6 improves on).
func pipelineStage(forward bool) *repro.Service {
	return repro.NewService(
		repro.Method("wire", func(ctx *repro.Context, req pipeWire) (struct{}, error) {
			ctx.Store("next", req.Next)
			ctx.Store("last", repro.Bool(req.Last))
			return struct{}{}, nil
		}),
		repro.Method("proc", func(ctx *repro.Context, x int64) (repro.Value, error) {
			y := pipeWork(x)
			if ctx.Load("last").AsBool() {
				return repro.Int(y), nil
			}
			fut, err := repro.CallTyped[int64](ctx, ctx.Load("next"), "proc", y)
			if err != nil {
				return repro.Null(), err
			}
			if !forward {
				v, err := fut.Wait(30 * time.Second)
				if err != nil {
					return repro.Null(), err
				}
				return repro.Int(v), nil
			}
			// Forwarded: hand the caller the unresolved future; the
			// runtime flattens the chain to the final concrete value.
			return repro.Marshal(fut)
		}),
	)
}

// benchPipeline drives concurrent items through a 4-stage cross-node
// chain. Throughput is bounded by the busiest stage: waiting at every hop
// keeps stage 0 occupied for the whole downstream round trip, while
// forwarding frees each stage after its own compute, pipelining the
// chain.
func benchPipeline(b *testing.B, forward bool) {
	b.Helper()
	env := repro.NewEnv(repro.Config{DisableDGC: true})
	b.Cleanup(env.Close)
	caller := env.NewNode()
	const stages = 4
	handles := make([]*repro.Handle, stages)
	for i := range handles {
		handles[i] = env.NewNode().NewActive(fmt.Sprintf("stage-%d", i), pipelineStage(forward))
	}
	for i, h := range handles {
		wire := repro.NewStub[pipeWire, struct{}](h, "wire")
		var next repro.Value
		if i < stages-1 {
			next = handles[i+1].Ref()
		} else {
			next = repro.Null()
		}
		if _, err := wire.CallSync(pipeWire{Next: next, Last: i == stages-1}, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	head, err := caller.HandleFor(handles[0].Ref())
	if err != nil {
		b.Fatal(err)
	}
	defer head.Release()
	proc := repro.NewStub[int64, int64](head, "proc")
	b.ReportAllocs()
	// Enough in-flight items to keep every stage of the chain busy; the
	// client side is pure waiting, so high parallelism costs nothing.
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := proc.CallSync(7, 30*time.Second); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(stages, "stages")
}

// BenchmarkPipelineWaitEveryHop is the baseline: every stage blocks on
// its downstream result, so one in-flight item occupies the whole chain.
func BenchmarkPipelineWaitEveryHop(b *testing.B) { benchPipeline(b, false) }

// BenchmarkPipelineForwarded is the first-class shape: stages forward
// futures and are immediately free; the chain pipelines and throughput
// approaches one item per stage-compute instead of one per chain
// round-trip (the PR 4 acceptance bar is ≥1.5× on 4-stage chains).
func BenchmarkPipelineForwarded(b *testing.B) { benchPipeline(b, true) }

// benchCounter is the migratable behavior of the migration benchmarks:
// its state is a single Store entry, so the envelope stays small and the
// measured cost is the protocol, not the payload.
type benchCounter struct{}

func (benchCounter) Serve(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
	switch method {
	case "add":
		total := ctx.Load("total").AsInt() + args.AsInt()
		ctx.Store("total", repro.Int(total))
		return repro.Int(total), nil
	}
	return repro.Null(), fmt.Errorf("benchCounter: unknown method %q", method)
}

func init() {
	repro.RegisterBehavior("bench/counter", func() repro.Behavior { return benchCounter{} })
}

// BenchmarkCallDuringMigration measures the per-call cost of calling an
// activity that keeps migrating between two nodes (one move per 100
// calls, awaited): the caller's reference goes stale on every move, pays
// the forwarder relay until the redirect rebinds it, and the DGC keeps
// running throughout. Compare with BenchmarkCrossNodeCall for the
// steady-state baseline the migration churn is added on top of.
func BenchmarkCallDuringMigration(b *testing.B) {
	env := repro.NewEnv(repro.Config{})
	b.Cleanup(env.Close)
	caller := env.NewNode()
	homes := []*repro.Node{env.NewNode(), env.NewNode()}
	h, err := homes[0].SpawnKind("roamer", "bench/counter")
	if err != nil {
		b.Fatal(err)
	}
	defer h.Release()
	remote, err := caller.HandleFor(h.Ref())
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Release()
	arg := repro.Int(1)
	b.ReportAllocs()
	b.ResetTimer()
	moves := 0
	for i := 0; i < b.N; i++ {
		if i%100 == 99 {
			moves++
			mfut, err := h.Migrate(homes[moves%2].ID())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mfut.Wait(30 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := remote.CallSync("add", arg, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(moves), "migrations")
}
