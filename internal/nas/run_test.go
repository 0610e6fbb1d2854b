package nas

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// runKernel executes a test-sized kernel run and fails on error.
func runKernel(t *testing.T, cfg RunConfig) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Kernel, err)
	}
	if !res.Verified {
		t.Fatalf("Run(%s): verification failed (value=%v)", cfg.Kernel, res.Value)
	}
	return res
}

func TestCGRunsAndCollects(t *testing.T) {
	res := runKernel(t, TestParams(KernelCG))
	if res.DGCTime <= 0 {
		t.Fatal("DGC time not measured")
	}
	if res.AppBytes == 0 || res.DGCBytes == 0 {
		t.Fatalf("traffic not accounted: %+v", res)
	}
	// CG ships full vectors every iteration: application traffic must
	// dominate DGC chatter even at test scale... at least exist in the
	// same order of magnitude. The strict ratio is asserted at bench
	// scale (EXPERIMENTS.md).
	if res.AppBytes+res.FutureBytes < 10_000 {
		t.Fatalf("suspiciously little CG app traffic: %d", res.AppBytes+res.FutureBytes)
	}
}

func TestEPRunsAndCollects(t *testing.T) {
	cfg := TestParams(KernelEP)
	res := runKernel(t, cfg)
	// DGCTime is reported in paper time: collecting the cycle takes
	// several beats (11–13 TTB measured), so a figure outside [1, 40]
	// TTB means the wall-to-paper conversion is off, not that the DGC
	// was slow.
	if res.DGCTime < cfg.TTB || res.DGCTime > 40*cfg.TTB {
		t.Fatalf("DGC time %v outside [TTB, 40·TTB] for TTB %v", res.DGCTime, cfg.TTB)
	}
	// EP ships almost nothing: a few requests and tiny results.
	if res.AppBytes+res.FutureBytes > 100_000 {
		t.Fatalf("EP app traffic too high: %d", res.AppBytes+res.FutureBytes)
	}
}

func TestFTRunsAndCollects(t *testing.T) {
	res := runKernel(t, TestParams(KernelFT))
	if res.DGCTime <= 0 {
		t.Fatal("DGC time not measured")
	}
	// FT ships the whole grid repeatedly.
	if res.AppBytes+res.FutureBytes < 50_000 {
		t.Fatalf("suspiciously little FT app traffic: %d", res.AppBytes+res.FutureBytes)
	}
}

func TestNoDGCBaselineRuns(t *testing.T) {
	cfg := TestParams(KernelEP)
	cfg.DGC = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("baseline EP verification failed")
	}
	if res.DGCBytes != 0 {
		t.Fatalf("baseline run produced DGC traffic: %d bytes", res.DGCBytes)
	}
	if res.DGCTime != 0 {
		t.Fatal("baseline run must not report a DGC time")
	}
}

func TestResultsIndependentOfWorkerCount(t *testing.T) {
	// The kernels compute the same global result whatever the
	// parallelism: the numeric cores use the shared global sequence
	// (EP), the same matrix (CG) and the same grid (FT).
	for _, k := range []Kernel{KernelCG, KernelEP, KernelFT} {
		k := k
		t.Run(string(k), func(t *testing.T) {
			cfg1 := TestParams(k)
			cfg1.Workers = 2
			cfg1.DGC = false // faster: skip collection phases
			cfg2 := TestParams(k)
			cfg2.Workers = 4
			cfg2.DGC = false
			r1, err := Run(cfg1)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r1.Value-r2.Value) > 1e-9*(1+math.Abs(r1.Value)) {
				t.Fatalf("value depends on np: %v (np=2) vs %v (np=4)", r1.Value, r2.Value)
			}
		})
	}
}

func TestEPAcceptanceRatioIsPiOver4(t *testing.T) {
	cfg := TestParams(KernelEP)
	cfg.DGC = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("EP acceptance ratio check failed")
	}
}

func TestCollectedViaCyclesNotLeaks(t *testing.T) {
	// The complete reference graph is one big cycle: collection must be
	// driven by the cyclic machinery (consensus + wave), with at most a
	// few stragglers on the acyclic path.
	res := runKernel(t, TestParams(KernelEP))
	var cyclic, total int
	for reason, n := range res.Collected {
		total += n
		if reason.String() == "cyclic-consensus" || reason.String() == "cyclic-notified" {
			cyclic += n
		}
	}
	if total != 5 { // 4 workers + coordinator
		t.Fatalf("collected %d activities, want 5 (%v)", total, res.Collected)
	}
	if cyclic == 0 {
		t.Fatalf("no cyclic collections: %v", res.Collected)
	}
}

func TestTestAndPaperParamsComplete(t *testing.T) {
	for _, k := range []Kernel{KernelCG, KernelEP, KernelFT} {
		tp := TestParams(k)
		if tp.Kernel != k || tp.Workers == 0 {
			t.Fatalf("TestParams(%s) incomplete: %+v", k, tp)
		}
		pp := PaperParams(k)
		if pp.Kernel != k || pp.Workers < tp.Workers {
			t.Fatalf("PaperParams(%s) incomplete: %+v", k, pp)
		}
		if pp.TTB.Seconds() != 30 || pp.TTA.Seconds() != 61 {
			t.Fatalf("PaperParams(%s) must use the paper's TTB/TTA (30/61s): %+v", k, pp)
		}
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	topo := grid.Grid5000().Scaled(16)
	got := nodePlacementCheck(topo, 10)
	if len(got) != 10 {
		t.Fatalf("placement size %d", len(got))
	}
	for i, n := range got {
		if int(n) != i%topo.NumNodes()+1 {
			t.Fatalf("placement[%d] = %v, want round-robin", i, n)
		}
	}
}
