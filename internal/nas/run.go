package nas

import (
	"fmt"
	"math"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// RunConfig assembles one benchmark run (one cell of the Fig. 8/9 tables).
type RunConfig struct {
	// Kernel selects CG, EP or FT.
	Kernel Kernel
	// Workers is the number of worker activities (the paper uses 256).
	Workers int
	// Nodes scales the Grid'5000 topology down to about this many nodes
	// (the paper uses all 128); activities are placed round-robin (§5.2).
	Nodes int
	// DGC enables the distributed garbage collector; with false the run
	// is the paper's "No DGC" baseline with explicit termination.
	DGC bool
	// TTB, TTA are the DGC parameters in paper time (§5.2 uses 30 s /
	// 61 s).
	TTB, TTA time.Duration
	// ScaleFactor compresses paper time onto the wall clock (DESIGN.md
	// §3): Run divides every paper-time duration by it and multiplies
	// the wall durations it measures by it. 0 defaults to 1000.
	ScaleFactor int64
	// CG, EP, FT size their kernels; only the selected kernel's params
	// are used.
	CG CGParams
	EP EPParams
	FT FTParams
	// Timeout bounds the whole run in paper time (default 4 h).
	Timeout time.Duration
}

func (c RunConfig) withDefaults() RunConfig {
	if c.ScaleFactor == 0 {
		c.ScaleFactor = 1000
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.TTB == 0 {
		c.TTB = 30 * time.Second
	}
	if c.TTA == 0 {
		c.TTA = 61 * time.Second
	}
	if c.Timeout == 0 {
		c.Timeout = 4 * time.Hour
	}
	return c
}

// Result is one row cell of the Fig. 8/9 tables.
type Result struct {
	// Kernel echoes the configuration.
	Kernel Kernel
	// Value is the kernel's numeric result (ζ for CG, Σdeviates for EP,
	// checksum real part for FT).
	Value float64
	// Verified reports the kernel's self-check.
	Verified bool
	// AppTime is the benchmark duration in paper time (Fig. 9 "No
	// DGC"/"DGC" columns).
	AppTime time.Duration
	// DGCTime is the time from the benchmark result until every activity
	// was collected (Fig. 9 "DGC time"); zero for no-DGC runs.
	DGCTime time.Duration
	// AppBytes / FutureBytes / DGCBytes are the accounted traffic per
	// class (Fig. 8 measures their sum).
	AppBytes    uint64
	FutureBytes uint64
	DGCBytes    uint64
	// Collected counts terminations per reason (DGC runs).
	Collected map[core.Reason]int
}

// TotalBytes is the Fig. 8 quantity: all payload bytes on the wire.
func (r Result) TotalBytes() uint64 {
	return r.AppBytes + r.FutureBytes + r.DGCBytes
}

// Run executes one NAS benchmark run and reports its measurements.
func Run(cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Kernel: cfg.Kernel}

	topo := grid.Grid5000()
	if cfg.Nodes < topo.NumNodes() {
		topo = topo.Scaled((topo.NumNodes() + cfg.Nodes - 1) / cfg.Nodes)
	}
	f := time.Duration(cfg.ScaleFactor)
	timeout := cfg.Timeout / f
	env := active.NewEnv(active.Config{
		TTB: cfg.TTB / f,
		TTA: cfg.TTA / f,
		Transport: simnet.New(simnet.Config{
			Latency: func(a, b ids.NodeID) time.Duration { return topo.Latency(a, b) / f },
			MaxComm: topo.MaxComm() / f,
		}),
		DisableDGC: !cfg.DGC,
	})
	defer env.Close()

	nodes := make([]*active.Node, topo.NumNodes())
	for i := range nodes {
		nodes[i] = env.NewNode()
	}

	// Round-robin placement of 1 coordinator + Workers workers (§5.2).
	placement := topo.RoundRobin(cfg.Workers + 1)
	nodeFor := func(i int) *active.Node { return nodes[int(placement[i])-1] }

	coordBehavior := &coordinator{
		kernel:     cfg.Kernel,
		np:         cfg.Workers,
		cg:         cfg.CG,
		ep:         cfg.EP,
		ft:         cfg.FT,
		waitBudget: timeout,
	}
	coord := nodeFor(0).NewActive("coordinator", coordBehavior)
	workerHandles := make([]*active.Handle, cfg.Workers)
	workerRefs := make([]wire.Value, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		workerHandles[i] = nodeFor(i+1).NewActive(fmt.Sprintf("worker-%d", i), &worker{})
		workerRefs[i] = workerHandles[i].Ref()
	}

	initArgs := wire.Dict(map[string]wire.Value{"workers": wire.List(workerRefs...)})
	if _, err := coord.CallSync("init", initArgs, timeout); err != nil {
		return res, fmt.Errorf("nas: init: %w", err)
	}
	// The deployer's references to the workers are dropped once the
	// coordinator holds them (as the paper's application would); only the
	// coordinator handle remains.
	for _, h := range workerHandles {
		h.Release()
	}

	start := time.Now()
	out, err := coord.CallSync("run", wire.Null(), timeout)
	if err != nil {
		return res, fmt.Errorf("nas: run: %w", err)
	}
	res.AppTime = time.Since(start) * f
	res.Value = out.Get("value").AsFloat()
	res.Verified = verify(cfg, out)

	snap := env.Network().Snapshot()
	res.AppBytes = snap.Bytes[simnet.ClassApp]
	res.FutureBytes = snap.Bytes[simnet.ClassFuture]
	res.DGCBytes = snap.Bytes[simnet.ClassDGC]

	if cfg.DGC {
		// Fig. 9's "DGC time": drop the last root and watch the complete
		// application graph (one big cycle) disappear.
		coord.Release()
		dgcTime, err := env.WaitCollected(0, timeout)
		if err != nil {
			return res, fmt.Errorf("nas: collection: %w", err)
		}
		res.DGCTime = dgcTime * f
		res.Collected = env.Stats().Collected
		// Account the traffic spent collecting too (the paper's totals
		// include the full run).
		snap = env.Network().Snapshot()
		res.AppBytes = snap.Bytes[simnet.ClassApp]
		res.FutureBytes = snap.Bytes[simnet.ClassFuture]
		res.DGCBytes = snap.Bytes[simnet.ClassDGC]
	} else {
		// Explicit termination, as the paper's NAS implementation does.
		if _, err := coord.CallSync("shutdown", wire.Null(), timeout); err != nil {
			return res, fmt.Errorf("nas: shutdown: %w", err)
		}
		if _, err := env.WaitCollected(0, timeout); err != nil {
			return res, fmt.Errorf("nas: explicit termination: %w", err)
		}
		coord.Release()
	}
	return res, nil
}

// verify applies each kernel's self-check.
func verify(cfg RunConfig, out wire.Value) bool {
	switch cfg.Kernel {
	case KernelCG:
		// The explicit relative residual of the last solve must be small
		// (CG with 25 inner iterations on this κ≈17 matrix converges to
		// ~1e-5 relative) and ζ finite and above the shift.
		rnorm := out.Get("rnorm").AsFloat()
		zeta := out.Get("value").AsFloat()
		rel := rnorm / math.Sqrt(float64(cfg.CG.N))
		return rel < 1e-4 && !math.IsNaN(zeta) && zeta > cfg.CG.Shift
	case KernelEP:
		// The Marsaglia acceptance ratio converges to π/4 ≈ 0.785.
		pairs := float64(out.Get("pairs").AsInt())
		accepted := float64(out.Get("accepted").AsInt())
		if pairs == 0 {
			return false
		}
		ratio := accepted / pairs
		return math.Abs(ratio-math.Pi/4) < 0.01
	case KernelFT:
		v := out.Get("value").AsFloat()
		im := out.Get("im").AsFloat()
		return !math.IsNaN(v) && !math.IsInf(v, 0) && !math.IsNaN(im)
	default:
		return false
	}
}

// TestParams returns tiny kernel classes for unit tests.
func TestParams(k Kernel) RunConfig {
	cfg := RunConfig{
		Kernel:      k,
		Workers:     4,
		Nodes:       4,
		DGC:         true,
		TTB:         20 * time.Second,
		TTA:         55 * time.Second,
		ScaleFactor: 400,
		Timeout:     2 * time.Hour,
	}
	switch k {
	case KernelCG:
		cfg.CG = CGParams{N: 128, Stride: 16, Inner: 25, Outer: 2, Shift: 10}
	case KernelEP:
		cfg.EP = EPParams{LogPairs: 16}
	case KernelFT:
		cfg.FT = FTParams{NX: 8, NY: 8, NZ: 8, Iters: 2}
	}
	return cfg
}

// PaperParams returns the laptop-scaled equivalent of the paper's class C
// / 256-activity setup: same TTB/TTA (30 s / 61 s), Grid'5000 latencies,
// larger kernels, more workers.
func PaperParams(k Kernel) RunConfig {
	cfg := RunConfig{
		Kernel:      k,
		Workers:     32,
		Nodes:       16,
		DGC:         true,
		TTB:         30 * time.Second,
		TTA:         61 * time.Second,
		ScaleFactor: 200,
		Timeout:     6 * time.Hour,
	}
	switch k {
	case KernelCG:
		cfg.CG = CGParams{N: 1400, Stride: 64, Inner: 25, Outer: 6, Shift: 10}
	case KernelEP:
		cfg.EP = EPParams{LogPairs: 22}
	case KernelFT:
		cfg.FT = FTParams{NX: 32, NY: 32, NZ: 32, Iters: 6}
	}
	return cfg
}

// nodePlacementCheck is referenced by tests to assert round-robin
// placement matches the paper's deployment.
func nodePlacementCheck(topo *grid.Topology, m int) []ids.NodeID {
	return topo.RoundRobin(m)
}
