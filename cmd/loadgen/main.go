// Command loadgen drives the active-object runtime with configurable
// workload mixes and emits machine-readable messaging measurements.
//
// One-off run (closed loop, mixed workload, batching on, over TCP):
//
//	go run ./cmd/loadgen -backend tcp -duration 3s -mix 6:2:1 -batch 200us
//
// Open-loop latency probe at a fixed arrival rate:
//
//	go run ./cmd/loadgen -rate 5000 -duration 5s
//
// Soak with connection chaos:
//
//	go run ./cmd/loadgen -backend tcp -duration 30s -mix 4:1:2 -drop-every 2s
//
// Elastic-cluster churn with node-kill chaos (nodes join, serve, and die
// mid-run while the steady workload must ride through):
//
//	go run ./cmd/loadgen -duration 5s -mix 4:0:2 -kill-every 500ms
//
// The standard suite regenerates the repository's messaging trajectory
// (make bench):
//
//	go run ./cmd/loadgen -suite -duration 2s -out BENCH_messaging.json
//
// The suite runs the same closed-loop mixed workload over every
// (backend, batching) combination, so the JSON records exactly what the
// batching path buys on each substrate.
//
// Compare mode is the CI perf gate: measure a fresh suite, then fail if
// p50 call latency or calls/sec regressed beyond the threshold against
// the checked-in trajectory:
//
//	go run ./cmd/loadgen -suite -duration 2s -out /tmp/bench.json
//	go run ./cmd/loadgen -compare -candidate /tmp/bench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		backend      = flag.String("backend", "sim", `substrate: "sim" or "tcp"`)
		nodes        = flag.Int("nodes", 4, "worker nodes")
		actors       = flag.Int("actors", 4, "echo activities per node")
		group        = flag.Int("group", 0, "broadcast fan-out width (0 = auto)")
		workers      = flag.Int("workers", 0, "closed-loop concurrency (0 = 2×GOMAXPROCS)")
		rate         = flag.Float64("rate", 0, "open-loop arrivals/sec (0 = closed loop)")
		duration     = flag.Duration("duration", 2*time.Second, "measured run length")
		mix          = flag.String("mix", "1:0:0:0", "call:broadcast:churn[:pipeline[:migrate[:send]]] weights")
		colocate     = flag.Bool("colocate", false, "anchor the send lane on the actor-owning nodes (intra-node direct path)")
		payload      = flag.Int("payload", 64, "payload bytes per request")
		batch        = flag.Duration("batch", 0, "batch window (0 = batching off)")
		dgcOff       = flag.Bool("no-dgc", false, "disable the DGC")
		netCost      = flag.Duration("net-cost", 0, "sim backend: per-message interface overhead (simnet PerMessage)")
		dropEvery    = flag.Duration("drop-every", 0, "chaos: drop all TCP connections at this period")
		killEvery    = flag.Duration("kill-every", 0, "chaos: run a join-serve-die node lifecycle at this period (implies -cluster)")
		restartEvery = flag.Duration("restart-every", 0, "chaos: crash and recover the durable node at this period (sim backend)")
		clusterOn    = flag.Bool("cluster", false, "enable the elastic cluster runtime")
		seed         = flag.Int64("seed", 1, "workload seed")
		out          = flag.String("out", "", "write JSON here instead of stdout")
		suite        = flag.Bool("suite", false, "run the standard benchmark suite (ignores -backend/-batch)")

		compare    = flag.Bool("compare", false, "perf gate: compare -candidate against -baseline instead of running a workload")
		baseline   = flag.String("baseline", "BENCH_messaging.json", "compare: the checked-in suite JSON")
		candidate  = flag.String("candidate", "", "compare: the freshly measured suite JSON")
		maxRegress = flag.Float64("max-regress", 25, "compare: allowed regression in percent (p50 call latency up, calls/sec down)")
	)
	flag.Parse()

	if *compare {
		if *candidate == "" {
			fmt.Fprintln(os.Stderr, "loadgen: -compare needs -candidate")
			os.Exit(2)
		}
		if err := compareSuites(*baseline, *candidate, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	m, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base := loadgen.Config{
		Backend:        *backend,
		Nodes:          *nodes,
		ActorsPerNode:  *actors,
		GroupSize:      *group,
		Workers:        *workers,
		RatePerSec:     *rate,
		Duration:       *duration,
		Mix:            m,
		PayloadBytes:   *payload,
		BatchWindow:    *batch,
		DisableDGC:     *dgcOff,
		Colocate:       *colocate,
		NetPerMessage:  *netCost,
		DropConnsEvery: *dropEvery,
		Cluster:        *clusterOn,
		NodeKillEvery:  *killEvery,
		RestartEvery:   *restartEvery,
		Seed:           *seed,
	}

	var doc any
	if *suite {
		doc, err = runSuite(base)
	} else {
		var res loadgen.Result
		res, err = loadgen.Run(base)
		doc = res
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d scenarios)\n", *out, suiteLen(doc))
}

// suiteDoc is the schema of BENCH_messaging.json.
type suiteDoc struct {
	// Meta describes the run environment (for reading trajectories across
	// machines with the right grain of salt).
	Meta struct {
		GoVersion string `json:"go_version"`
		NumCPU    int    `json:"num_cpu"`
		Note      string `json:"note"`
	} `json:"meta"`
	// Scenarios holds one result per (backend, batching) combination.
	Scenarios []loadgen.Result `json:"scenarios"`
}

func suiteLen(doc any) int {
	if d, ok := doc.(suiteDoc); ok {
		return len(d.Scenarios)
	}
	return 1
}

// runSuite executes the standard matrix — the same mixed closed-loop
// workload over {sim, tcp} × {unbatched, batched} — plus the scale
// scenarios: tree group broadcast at 1024 members, and the
// 10^5-activity churn + migration + node-kill run the location directory
// is proven by.
func runSuite(base loadgen.Config) (suiteDoc, error) {
	var doc suiteDoc
	doc.Meta.GoVersion = runtime.Version()
	doc.Meta.NumCPU = runtime.NumCPU()
	doc.Meta.Note = "closed-loop mixed workload (call:broadcast:churn:pipeline = 6:2:1:2; pipeline = 4-stage forwarded-future chain) plus bcast1024-tree, sends-1m-local, scale-churn and churn-restart scenarios, regenerate with: make bench"

	for _, backend := range []string{"sim", "tcp"} {
		for _, window := range []time.Duration{0, 200 * time.Microsecond} {
			cfg := base
			cfg.Backend = backend
			cfg.BatchWindow = window
			cfg.Mix = loadgen.Mix{Call: 6, Broadcast: 2, Churn: 1, Pipeline: 2}
			res, err := loadgen.Run(cfg)
			if err != nil {
				return doc, fmt.Errorf("suite %s window=%v: %w", backend, window, err)
			}
			doc.Scenarios = append(doc.Scenarios, res)
		}
	}

	// Tree broadcast, 1024 members over 16 nodes.
	{
		cfg := base
		cfg.Name = "bcast1024-tree"
		cfg.Backend = "sim"
		cfg.Nodes = 16
		cfg.ActorsPerNode = 64
		cfg.GroupSize = 1024
		cfg.Workers = 1
		cfg.Mix = loadgen.Mix{Broadcast: 1}
		// Interfaces with realistic per-packet overhead (simnet
		// PerMessage; the paper's own evaluation rode RMI through a SOCKS
		// proxy, well above this): the packet-rate bottleneck at the root
		// is precisely what the tree topology relieves, and what a
		// zero-cost in-memory network would hide. One worker so the
		// scenario measures a single broadcast's latency, not
		// self-contention at the shared root.
		cfg.NetPerMessage = 100 * time.Microsecond
		res, err := loadgen.Run(cfg)
		if err != nil {
			return doc, fmt.Errorf("suite %s: %w", cfg.Name, err)
		}
		doc.Scenarios = append(doc.Scenarios, res)
	}

	// The asynchronous-messaging floor: a send-only lane of colocated
	// one-way pings with a sync barrier every 256th op, gated by the
	// comparator on sustaining ≥10^6 served ops/s aggregate. Colocated
	// because this scenario measures the runtime's own hot path — typed
	// marshal, queue push, affinity serve — not the substrate hop (the
	// matrix scenarios above cover that); the windowed barrier makes the
	// figure honest by proving the serve side drained each window.
	{
		cfg := base
		cfg.Name = "sends-1m-local"
		cfg.Backend = "sim"
		cfg.Nodes = 2
		cfg.ActorsPerNode = 2
		cfg.Workers = 4
		cfg.Mix = loadgen.Mix{Send: 1}
		cfg.Colocate = true
		cfg.DisableDGC = true
		res, err := loadgen.Run(cfg)
		if err != nil {
			return doc, fmt.Errorf("suite %s: %w", cfg.Name, err)
		}
		doc.Scenarios = append(doc.Scenarios, res)
	}

	// The 10^5-activity scale proof: 8 worker nodes in an elastic
	// cluster, burst churn + live migration + a node hard-killed every
	// 300ms, running until at least 100k activities existed. The
	// comparator gates it on zero lost replies and the activity floor.
	{
		cfg := base
		cfg.Name = "scale-churn-100k"
		cfg.Backend = "sim"
		cfg.Nodes = 8
		cfg.ActorsPerNode = 16
		cfg.Mix = loadgen.Mix{Call: 2, Broadcast: 1, Churn: 6, Migrate: 1}
		cfg.ChurnBurst = 32
		cfg.MinActivities = 100_000
		cfg.NodeKillEvery = 300 * time.Millisecond
		res, err := loadgen.Run(cfg)
		if err != nil {
			return doc, fmt.Errorf("suite %s: %w", cfg.Name, err)
		}
		doc.Scenarios = append(doc.Scenarios, res)
	}

	// Durability under crash-restart chaos: a durable node of registered,
	// checkpointed actors is hard-killed and recovered every 300ms while
	// the steady workload rides through. The comparator gates it on every
	// restart cycle preserving every registered identity.
	{
		cfg := base
		cfg.Name = "churn-restart"
		cfg.Backend = "sim"
		cfg.Nodes = 4
		cfg.ActorsPerNode = 4
		cfg.Mix = loadgen.Mix{Call: 4, Churn: 2}
		cfg.RestartEvery = 300 * time.Millisecond
		res, err := loadgen.Run(cfg)
		if err != nil {
			return doc, fmt.Errorf("suite %s: %w", cfg.Name, err)
		}
		doc.Scenarios = append(doc.Scenarios, res)
	}
	return doc, nil
}

func parseMix(s string) (loadgen.Mix, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 6 {
		return loadgen.Mix{}, fmt.Errorf("loadgen: -mix wants call:broadcast:churn[:pipeline[:migrate[:send]]], got %q", s)
	}
	var vals [6]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &vals[i]); err != nil {
			return loadgen.Mix{}, fmt.Errorf("loadgen: bad mix component %q", p)
		}
	}
	return loadgen.Mix{Call: vals[0], Broadcast: vals[1], Churn: vals[2], Pipeline: vals[3], Migrate: vals[4], Send: vals[5]}, nil
}
