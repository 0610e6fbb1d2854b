// Command griddeploy runs the library at the paper's own operating point:
// the Grid'5000 three-site topology of §5.1 (real measured RTTs between
// Bordeaux, Sophia and Rennes), the paper's TTB = 30 s / TTA = 150 s,
// compressed 1000× — so thirty paper-minutes fit in under two
// wall-seconds. A chain of inter-site service dependencies ending in a
// cross-site cycle is deployed, health-checked with a typed group
// broadcast, used, abandoned, and reclaimed.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

// scale compresses paper time onto the wall clock the runtime runs on:
// every paper-time duration handed to the runtime (TTB, TTA, latencies,
// timeouts) is divided by it, and every wall duration measured is
// multiplied by it. The DGC depends only on duration ratios (DESIGN.md
// §3), so the run is the paper's, only faster.
const scale = 1000

// wall converts a paper-time duration to wall time.
func wall(paper time.Duration) time.Duration { return paper / scale }

// resolveService forwards "resolve" down a dependency chain.
func resolveService() *repro.Service {
	return repro.NewService(
		repro.Method("depend", func(ctx *repro.Context, dep repro.Value) (struct{}, error) {
			ctx.Store("dep", dep)
			return struct{}{}, nil
		}),
		repro.Method("resolve", func(ctx *repro.Context, hops int64) (int64, error) {
			dep := ctx.Load("dep")
			if dep.IsNull() || hops <= 0 {
				return hops, nil
			}
			fut, err := repro.CallTyped[int64](ctx, dep, "resolve", hops-1)
			if err != nil {
				return 0, err
			}
			return fut.Wait(wall(10 * time.Minute))
		}),
		repro.Method("healthz", func(ctx *repro.Context, _ struct{}) (string, error) {
			return "ok from " + ctx.ID().String(), nil
		}),
	)
}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Println(err)
		os.Exit(1)
	}
}

func run() error {
	topo := repro.Grid5000().Scaled(16) // 4 + 3 + 3 nodes, real RTTs
	env := repro.NewEnv(repro.Config{
		TTB: wall(30 * time.Second),
		TTA: wall(150 * time.Second),
		Transport: repro.NewSimTransport(repro.SimConfig{
			Latency: func(a, b repro.NodeID) time.Duration { return wall(topo.Latency(a, b)) },
			MaxComm: wall(topo.MaxComm()),
		}),
	})
	defer env.Close()

	nodes := make([]*repro.Node, topo.NumNodes())
	for i := range nodes {
		nodes[i] = env.NewNode()
	}
	fmt.Printf("deployed %d nodes across 3 sites (max one-way latency %v)\n",
		len(nodes), topo.MaxComm())
	fmt.Printf("DGC: TTB=30s TTA=150s (paper values), time compressed x%d\n\n", scale)

	// Chain across sites: bordeaux → sophia → rennes → bordeaux → ... and
	// close a cycle among the last three.
	const chainLen = 6
	handles := make([]*repro.Handle, chainLen)
	for i := range handles {
		node := nodes[(i*4)%len(nodes)] // hop across the site blocks
		handles[i] = node.NewActive(fmt.Sprintf("svc-%d", i), resolveService())
	}
	for i := 0; i < chainLen-1; i++ {
		depend := repro.NewStub[repro.Value, struct{}](handles[i], "depend")
		if _, err := depend.CallSync(handles[i+1].Ref(), wall(5*time.Minute)); err != nil {
			return err
		}
	}
	// Feedback edge: the tail depends on the middle — a cross-site cycle.
	depend := repro.NewStub[repro.Value, struct{}](handles[chainLen-1], "depend")
	if _, err := depend.CallSync(handles[chainLen/2].Ref(), wall(5*time.Minute)); err != nil {
		return err
	}

	// A typed group broadcast health-checks the whole deployment in one
	// fan-out. The group takes ownership of the handles: releasing it
	// below is what abandons the deployment.
	group := repro.NewGroup[struct{}, string]("healthz", handles...)
	fg, err := group.Broadcast(struct{}{})
	if err != nil {
		return err
	}
	replies, err := fg.WaitAll(wall(10 * time.Minute))
	if err != nil {
		return err
	}
	fmt.Printf("health broadcast over %d services: %d ok (e.g. %q)\n",
		group.Size(), len(replies), replies[0])

	// Resolve down the chain, stopping before the feedback edge: the
	// cross-site cycle exists purely as stored references (that is what
	// the DGC must deal with), never as a call cycle — calling through it
	// would be a classic active-object wait-by-necessity deadlock.
	start := time.Now()
	resolve := repro.NewStub[int64, int64](handles[0], "resolve")
	left, err := resolve.CallSync(chainLen-1, wall(30*time.Minute))
	if err != nil {
		return err
	}
	fmt.Printf("resolve across the grid: %d hops left after the chain, took %v of grid time\n",
		left, (time.Since(start) * scale).Round(time.Second))

	fmt.Println("\nabandoning the deployment (releasing the group's handles)")
	group.Release()
	took, err := env.WaitCollected(0, wall(time.Hour))
	if err != nil {
		return err
	}
	fmt.Printf("all %d services reclaimed in %v of grid time (%v wall): %v\n",
		chainLen, (took * scale).Round(time.Second), took.Round(time.Millisecond),
		env.Stats().Collected)
	return nil
}
