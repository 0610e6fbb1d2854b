package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/localgc"
	"repro/internal/location"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/torture"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The layer ladder times one public call of each package from outside,
// with nothing else running: the median of ladderReps repeats of a fixed
// iteration count, or an exact count. It says what one step of a layer
// costs, so that a moved end-to-end number can be traced to the layer
// that moved; no end-to-end metric is derived from it.

const ladderReps = 5

// ladderSink keeps results alive so the timed calls are not optimised out.
var ladderSink any

type nullHandler struct{}

func (nullHandler) HandleOneWay(ids.NodeID, transport.Class, []byte)      {}
func (nullHandler) HandleCall(ids.NodeID, transport.Class, []byte) []byte { return nil }

// nullEndpoint accepts everything and does nothing: what is left when
// timing Flusher.Send through it is the flusher's own idle-lane path.
type nullEndpoint struct{}

func (nullEndpoint) Node() ids.NodeID                                         { return 1 }
func (nullEndpoint) Send(ids.NodeID, transport.Class, []byte) error           { return nil }
func (nullEndpoint) Call(ids.NodeID, transport.Class, []byte) ([]byte, error) { return nil, nil }

// mallocsPer returns heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// runLadder measures every workload-independent per-layer metric. The
// seed supplies the payload bytes, so the ladder too runs on seeded inputs.
func runLadder(seed int64) (map[string]float64, error) {
	m := make(map[string]float64)
	small := genInputs(seed, 64).payload
	large := genInputs(seed, 4096).payload
	if err := ladderWire(m, small, large); err != nil {
		return nil, fmt.Errorf("ladder wire: %w", err)
	}
	ladderTransport(m, small)
	if err := ladderSimnet(m, small); err != nil {
		return nil, fmt.Errorf("ladder simnet: %w", err)
	}
	if err := ladderTCP(m, small, large); err != nil {
		return nil, fmt.Errorf("ladder tcpnet: %w", err)
	}
	ladderLocalGC(m)
	if err := ladderCore(m); err != nil {
		return nil, fmt.Errorf("ladder core: %w", err)
	}
	ladderLocation(m)
	if err := ladderActive(m, small); err != nil {
		return nil, fmt.Errorf("ladder active: %w", err)
	}
	return m, nil
}

func ladderWire(m map[string]float64, small, large []byte) error {
	wire.RegisterType(echoReq{})
	const iters = 20000
	req := echoReq{Seq: makeSeq(1, 12345), Payload: small}
	v, err := wire.Marshal(req)
	if err != nil {
		return err
	}
	buf := wire.Encode(nil, v)
	var dec wire.Decoder
	m["wire.encoded_bytes_64"] = float64(len(buf))
	m["wire.marshal_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			ladderSink, _ = wire.Marshal(req)
		}
	})
	m["wire.encode_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			buf = wire.Encode(buf[:0], v)
		}
	})
	var decErr error
	m["wire.decode_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			if _, err := dec.Decode(buf); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return decErr
	}
	var out echoReq
	m["wire.unmarshal_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			if err := wire.Unmarshal(v, &out); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil || out.Seq != req.Seq || len(out.Payload) != len(small) {
		return fmt.Errorf("unmarshal round trip: %v, got seq %d", decErr, out.Seq)
	}
	m["wire.deepcopy_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			ladderSink = wire.DeepCopy(v)
		}
	})
	m["wire.allocs_roundtrip"] = mallocsPer(2000, func() {
		rv, _ := wire.Marshal(req)
		buf = wire.Encode(buf[:0], rv)
		dv, _ := dec.Decode(buf)
		_ = wire.Unmarshal(dv, &out)
	})

	v4, err := wire.Marshal(echoReq{Seq: 1, Payload: large})
	if err != nil {
		return err
	}
	buf4 := wire.Encode(nil, v4)
	const iters4 = 5000
	m["wire.encode_4k_ns"] = timeMedianNs(ladderReps, iters4, func() {
		for i := 0; i < iters4; i++ {
			buf4 = wire.Encode(buf4[:0], v4)
		}
	})
	m["wire.decode_4k_ns"] = timeMedianNs(ladderReps, iters4, func() {
		for i := 0; i < iters4; i++ {
			ladderSink, _ = dec.Decode(buf4)
		}
	})
	return nil
}

func ladderTransport(m map[string]float64, payload []byte) {
	const iters = 20000
	f := transport.NewFlusher(nullEndpoint{}, transport.FlusherConfig{Window: tcpBatchWindow})
	m["transport.flusher_send_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			// Urgent on an idle lane: the inline write the call path takes.
			_ = f.Send(2, transport.ClassApp, payload, true)
		}
	})
	f.Close()

	items := make([]transport.BatchItem, 32)
	for i := range items {
		items[i] = transport.BatchItem{Class: transport.ClassApp, Payload: payload}
	}
	var buf []byte
	const batches = 2000
	m["transport.appendbatch_ns_per_item"] = timeMedianNs(ladderReps, batches*len(items), func() {
		for i := 0; i < batches; i++ {
			buf = transport.AppendBatch(buf[:0], items)
		}
	})
	var walked int
	m["transport.walkbatch_ns_per_item"] = timeMedianNs(ladderReps, batches*len(items), func() {
		for i := 0; i < batches; i++ {
			_ = transport.WalkBatch(buf, func(transport.Class, []byte) { walked++ })
		}
	})
	ladderSink = walked
}

// pairOn registers a sender (node 1) and a receiver (node 2) with no-op
// handlers on t.
func pairOn(t transport.Transport) transport.Endpoint {
	t.Register(2, nullHandler{})
	return t.Register(1, nullHandler{})
}

// oneWayNs times n one-way sends closed by one Call, which the per-pair
// FIFO orders behind them: the barrier proves every send was delivered.
func oneWayNs(ep transport.Endpoint, n int, payload []byte) (float64, error) {
	var err error
	ns := timeMedianNs(ladderReps, n, func() {
		for i := 0; i < n; i++ {
			if e := ep.Send(2, transport.ClassApp, payload); e != nil {
				err = e
			}
		}
		if _, e := ep.Call(2, transport.ClassApp, nil); e != nil {
			err = e
		}
	})
	return ns, err
}

func callNs(ep transport.Endpoint, n int, payload []byte) (float64, error) {
	var err error
	ns := timeMedianNs(ladderReps, n, func() {
		for i := 0; i < n; i++ {
			if _, e := ep.Call(2, transport.ClassApp, payload); e != nil {
				err = e
			}
		}
	})
	return ns, err
}

func ladderSimnet(m map[string]float64, payload []byte) error {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep := pairOn(net)
	var err error
	if m["simnet.send_ns"], err = oneWayNs(ep, 10000, payload); err != nil {
		return err
	}
	m["simnet.call_ns"], err = callNs(ep, 10000, payload)
	return err
}

func ladderTCP(m map[string]float64, small, large []byte) error {
	net, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return err
	}
	defer net.Close()
	// Dial cost first, on pairs nobody has used: node 1 calls nodes 3..7.
	sender := net.Register(1, nullHandler{})
	dials := make([]float64, 0, ladderReps)
	for dst := ids.NodeID(3); dst < 3+ladderReps; dst++ {
		net.Register(dst, nullHandler{})
		start := time.Now()
		if _, err := sender.Call(dst, transport.ClassApp, nil); err != nil {
			return err
		}
		dials = append(dials, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["tcpnet.dial_us"] = median(dials)

	ep := pairOn(net)
	if m["tcpnet.send_ns"], err = oneWayNs(ep, 10000, small); err != nil {
		return err
	}
	if m["tcpnet.send_4k_ns"], err = oneWayNs(ep, 4000, large); err != nil {
		return err
	}
	rtt, err := callNs(ep, 4000, small)
	if err != nil {
		return err
	}
	m["tcpnet.call_rtt_us"] = rtt / 1e3

	bs, ok := ep.(transport.BatchSender)
	if !ok {
		return fmt.Errorf("tcpnet endpoint is no transport.BatchSender")
	}
	items := make([]transport.BatchItem, 32)
	for i := range items {
		items[i] = transport.BatchItem{Class: transport.ClassApp, Payload: small}
	}
	const batches = 400
	m["tcpnet.sendbatch_ns_per_item"] = timeMedianNs(ladderReps, batches*len(items), func() {
		for i := 0; i < batches; i++ {
			if e := bs.SendBatch(2, items); e != nil {
				err = e
			}
		}
		if _, e := ep.Call(2, transport.ClassApp, nil); e != nil {
			err = e
		}
	})
	return err
}

func ladderLocalGC(m map[string]float64) {
	const iters = 10000
	owner := ids.ActivityID{Node: 1, Seq: 1}
	val := wire.List(wire.Int(7), wire.String("payload"), wire.Ref(ids.ActivityID{Node: 2, Seq: 3}))
	m["localgc.intern_ns"] = timeMedianNs(ladderReps, iters, func() {
		h := localgc.New(nil)
		for i := 0; i < iters; i++ {
			h.Intern(owner, val)
		}
	})
	m["localgc.newstub_ns"] = timeMedianNs(ladderReps, iters, func() {
		h := localgc.New(nil)
		for i := 0; i < iters; i++ {
			h.NewStub(owner, ids.ActivityID{Node: 2, Seq: uint32(i%64 + 1)})
		}
	})
	h := localgc.New(nil)
	ref := h.Intern(owner, val)
	m["localgc.root_add_remove_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			h.RemoveRoot(h.AddRoot(ref))
		}
	})
	// A sweep over 10 k cells of which every second one is rooted; the
	// heap is rebuilt outside the timed call, since a sweep frees.
	sweeps := make([]float64, ladderReps)
	for r := range sweeps {
		h := localgc.New(nil)
		for i := 0; i < 10000; i++ {
			ref := h.Intern(owner, wire.List(wire.Int(int64(i)), wire.Ref(ids.ActivityID{Node: 2, Seq: uint32(i%64 + 1)})))
			if i%2 == 0 {
				h.AddRoot(ref)
			}
		}
		start := time.Now()
		ladderSink = h.Collect()
		sweeps[r] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	m["localgc.collect_us_10k"] = median(sweeps)
}

func ladderCore(m map[string]float64) error {
	const iters = 20000
	cfg := core.Config{TTB: 30 * time.Second, TTA: 150 * time.Second}
	self := ids.ActivityID{Node: 1, Seq: 1}
	now := time.Unix(0, 0)
	// Never idle, so it beats its 8 referenced activities forever.
	c := core.New(self, cfg, func() bool { return false }, now)
	for i := 0; i < 8; i++ {
		c.AddReferenced(ids.ActivityID{Node: 2, Seq: uint32(i + 1)}, now)
	}
	m["core.tick_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			now = now.Add(cfg.TTB)
			ladderSink = c.Tick(now)
		}
	})
	msg := core.Message{
		Sender: ids.ActivityID{Node: 3, Seq: 9},
		Clock:  lamport.Clock{Value: 77, Owner: ids.ActivityID{Node: 1, Seq: 2}},
	}
	m["core.handle_message_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			now = now.Add(time.Second)
			ladderSink = c.HandleMessage(msg, now)
		}
	})
	m["core.msg_bytes"] = float64(len(core.EncodeMessage(msg)))
	var codecErr error
	m["core.msg_codec_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			if _, err := core.DecodeMessage(core.EncodeMessage(msg)); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return codecErr
	}

	// The paper's §5.3 torture at full scale on the deterministic DES:
	// these counts repeat exactly, so a protocol change shows in them
	// before any wall-clock number can resolve it.
	start := time.Now()
	res := torture.Run(torture.PaperParams(30*time.Second, 150*time.Second))
	wall := time.Since(start).Seconds()
	if !res.CollectedAll {
		return fmt.Errorf("torture left activities alive: %v", res.Reasons)
	}
	m["core.torture_collect_beats"] = res.LastCollectedAt.Seconds() / 30
	m["core.torture_dgc_msgs"] = float64(res.Traffic.DGCMessages)
	m["core.torture_dgc_bytes"] = float64(res.Traffic.DGCBytes)
	m["sim.torture_wall_s"] = wall
	m["sim.events_per_s"] = float64(res.Traffic.DGCMessages+res.Traffic.AppMessages) / wall

	for _, h := range []int{8, 32} {
		w := sim.NewWorld(sim.Config{TTB: 30 * time.Second, TTA: 150 * time.Second, Seed: 1})
		ring := make([]*sim.Activity, h)
		for j := range ring {
			ring[j] = w.NewActivity(ids.NodeID(j%workerNodes + 1))
		}
		for j := range ring {
			ring[j].Link(ring[(j+1)%h].ID())
		}
		ok, took := w.RunUntilCollected(h, 24*time.Hour)
		if !ok {
			return fmt.Errorf("simulated ring of %d not collected", h)
		}
		m[fmt.Sprintf("core.ring_collect_beats_h%d", h)] = took.Seconds() / 30
	}
	return nil
}

func ladderLocation(m map[string]float64) {
	const iters = 20000
	members := make([]ids.NodeID, 16)
	for i := range members {
		members[i] = ids.NodeID(i + 1)
	}
	ring := location.NewRing(members, 128)
	m["location.ring_owner_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			ladderSink, _ = ring.Owner(ids.ActivityID{Node: 3, Seq: uint32(i)})
		}
	})
	cache := location.NewCache(0)
	m["location.cache_add_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			cache.Add(ids.ActivityID{Node: 1, Seq: uint32(i%2048 + 1)}, ids.ActivityID{Node: 2, Seq: uint32(i%2048 + 1)})
		}
	})
	m["location.cache_resolve_hit_ns"] = timeMedianNs(ladderReps, iters, func() {
		for i := 0; i < iters; i++ {
			ladderSink = cache.Resolve(ids.ActivityID{Node: 1, Seq: uint32(i%2048 + 1)})
		}
	})
}

func ladderActive(m map[string]float64, payload []byte) error {
	var fifo atomic.Int64
	want := echoOf(payload)
	// callLoop times synchronous echo calls through stub.
	callLoop := func(stub active.Stub[echoReq, echoResp], iters int) (float64, error) {
		var err error
		ns := timeMedianNs(ladderReps, iters, func() {
			for i := 0; i < iters; i++ {
				resp, e := stub.CallSync(echoReq{Seq: -1, Payload: payload}, opTimeout)
				if e != nil {
					err = e
				} else if resp.Echo != want {
					err = fmt.Errorf("echo answered %d, want %d", resp.Echo, want)
				}
			}
		})
		return ns, err
	}

	// Same node, DGC off: the typed-call floor.
	env := active.NewEnv(active.Config{DisableDGC: true})
	defer env.Close()
	a, b := env.NewNode(), env.NewNode()
	local := a.NewActive("ladder-echo", active.NewService(echoMethod(nil, &fifo)))
	localStub := active.NewStub[echoReq, echoResp](local, "echo")
	var err error
	if m["active.call_local_ns"], err = callLoop(localStub, 10000); err != nil {
		return err
	}
	m["active.allocs_per_call"] = mallocsPer(2000, func() {
		_, _ = localStub.CallSync(echoReq{Seq: -1, Payload: payload}, opTimeout)
	})
	remote, err := b.HandleFor(local.Ref())
	if err != nil {
		return err
	}
	remoteStub := active.NewStub[echoReq, echoResp](remote, "echo")
	if m["active.call_xnode_ns"], err = callLoop(remoteStub, 10000); err != nil {
		return err
	}
	// One-way sends in windows of 256 closed by a synchronous call, which
	// FIFO orders behind them.
	const window, windows = 256, 20
	m["active.send_ns"] = timeMedianNs(ladderReps, window*windows, func() {
		for wdw := 0; wdw < windows; wdw++ {
			for i := 0; i < window-1; i++ {
				if e := remoteStub.Send(echoReq{Seq: -1, Payload: payload}); e != nil {
					err = e
				}
			}
			if _, e := remoteStub.CallSync(echoReq{Seq: -1, Payload: payload}, opTimeout); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	const lifecycles = 500
	m["active.spawn_us"] = timeMedianNs(ladderReps, lifecycles, func() {
		for i := 0; i < lifecycles; i++ {
			a.NewActive("ladder-spawn", active.NewService(echoMethod(nil, &fifo))).Release()
		}
	}) / 1e3
	m["active.handlefor_release_us"] = timeMedianNs(ladderReps, lifecycles, func() {
		for i := 0; i < lifecycles; i++ {
			h, e := b.HandleFor(local.Ref())
			if e != nil {
				err = e
				continue
			}
			h.Release()
		}
	}) / 1e3
	if err != nil {
		return err
	}
	kind := fmt.Sprintf("bench/ladder-counter-%d", kindSerial.Add(1))
	active.RegisterBehavior(kind, func() active.Behavior { return counterService(nil) })
	const moves = 100
	migrate := make([]float64, ladderReps)
	for r := range migrate {
		var total time.Duration
		for i := 0; i < moves; i++ {
			h, e := a.SpawnKind("ladder-counter", kind)
			if e != nil {
				return e
			}
			start := time.Now()
			fut, e := h.Migrate(b.ID())
			if e == nil {
				_, e = fut.Wait(opTimeout)
			}
			total += time.Since(start)
			h.Release()
			if e != nil {
				return e
			}
		}
		migrate[r] = float64(total.Nanoseconds()) / moves / 1e3
	}
	m["active.migrate_us"] = median(migrate)

	// Across nodes with the DGC on and 64 live activities beating.
	dgc := active.NewEnv(active.Config{TTB: 100 * time.Millisecond, TTA: time.Second})
	defer dgc.Close()
	da, db := dgc.NewNode(), dgc.NewNode()
	var target *active.Handle
	for i := 0; i < 64; i++ {
		h := da.NewActive("ladder-live", active.NewService(echoMethod(nil, &fifo)))
		defer h.Release()
		target = h
	}
	held, err := db.HandleFor(target.Ref())
	if err != nil {
		return err
	}
	defer held.Release()
	m["active.call_xnode_dgc_ns"], err = callLoop(active.NewStub[echoReq, echoResp](held, "echo"), 10000)
	return err
}
