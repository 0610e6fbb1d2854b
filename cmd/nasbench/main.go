// Command nasbench regenerates the paper's Fig. 8 (bandwidth overhead)
// and Fig. 9 (time overhead and DGC time) tables: each NAS kernel runs
// once without the DGC (explicit termination) and once with it, on the
// scaled Grid'5000 topology with the paper's TTB=30s / TTA=61s,
// compressed into wall time by nas.Run's scale factor.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/metrics"
	"repro/internal/nas"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kernels = flag.String("kernels", "cg,ep,ft", "comma-separated kernels to run")
		workers = flag.Int("workers", 32, "worker activities (paper: 256)")
		nodes   = flag.Int("nodes", 16, "grid nodes (paper: 128)")
		scale   = flag.Int64("scale", 200, "clock compression factor")
		quick   = flag.Bool("quick", false, "use tiny test-size kernels")
	)
	flag.Parse()

	var fig8, fig9 metrics.Table
	fig8.Header = []string{"Kernel", "No DGC", "DGC", "Overhead", "(paper)"}
	fig9.Header = []string{"Kernel", "No DGC time", "DGC time", "Overhead", "DGC collect time", "beats", "(paper collect)"}
	paperBW := map[nas.Kernel]string{nas.KernelCG: "15.07 %", nas.KernelEP: "929.28 %", nas.KernelFT: "14.73 %"}
	paperDGC := map[nas.Kernel]string{nas.KernelCG: "534 s", nas.KernelEP: "530 s", nas.KernelFT: "457 s"}

	for _, name := range strings.Split(*kernels, ",") {
		k := nas.Kernel(strings.TrimSpace(name))
		cfg := nas.PaperParams(k)
		if *quick {
			cfg = nas.TestParams(k)
		} else {
			cfg.Workers = *workers
			cfg.Nodes = *nodes
			cfg.ScaleFactor = *scale
		}

		fmt.Printf("running %s (np=%d, nodes=%d, TTB=%v, TTA=%v)...\n",
			k, cfg.Workers, cfg.Nodes, cfg.TTB, cfg.TTA)

		cfg.DGC = false
		base, err := nas.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s without DGC: %w", k, err)
		}
		cfg.DGC = true
		with, err := nas.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s with DGC: %w", k, err)
		}
		if !base.Verified || !with.Verified {
			return fmt.Errorf("%s verification failed (base=%v with=%v)", k, base.Verified, with.Verified)
		}

		fig8.AddRow(strings.ToUpper(string(k)),
			metrics.Bytes(base.TotalBytes()),
			metrics.Bytes(with.TotalBytes()),
			metrics.Percent(float64(with.TotalBytes()), float64(base.TotalBytes())),
			paperBW[k])
		beats := float64(with.DGCTime) / float64(cfg.TTB)
		fig9.AddRow(strings.ToUpper(string(k)),
			fmt.Sprintf("%.2f s", base.AppTime.Seconds()),
			fmt.Sprintf("%.2f s", with.AppTime.Seconds()),
			metrics.Percent(with.AppTime.Seconds(), base.AppTime.Seconds()),
			fmt.Sprintf("%.2f s", with.DGCTime.Seconds()),
			fmt.Sprintf("%.1f", beats),
			paperDGC[k])
	}

	fmt.Println("\nFig. 8 — total bandwidth (paper overhead column for reference):")
	if err := fig8.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nFig. 9 — benchmark time and DGC collection time (paper-scale seconds;")
	fmt.Println("paper collects 256 activities in 15–17 beats):")
	return fig9.Write(os.Stdout)
}
