package main

// The perf-regression comparator behind `loadgen -compare`: CI runs the
// standard suite into a fresh JSON and fails the build when the hot-path
// call metrics regress beyond a threshold against the checked-in
// trajectory (BENCH_messaging.json). Two metrics gate the build, per
// scenario: p50 call latency (must not grow) and calls/sec (must not
// shrink). Throughput-style comparisons on shared CI runners are noisy,
// hence the generous default threshold — the gate exists to catch
// step-function regressions (an accidental O(n) walk on the call path, a
// lost fast path), not single-digit drift.

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/loadgen"
)

// latencySlackMicros is an absolute floor under the percentage gate: a
// p50 regression must exceed the threshold AND grow by more than this
// many microseconds to fail the build. Sub-100µs p50s on a shared
// single-CPU runner move tens of microseconds between runs from
// scheduler jitter alone; a percentage gate by itself would flag that
// noise, while a real step-function regression clears both bars.
const latencySlackMicros = 100

// compareSuites loads two suite documents and checks every baseline
// scenario against its candidate counterpart (matched by backend and
// batch window). It returns an error describing the first set of
// violations when any gated metric regresses by more than maxRegressPct.
func compareSuites(baselinePath, candidatePath string, maxRegressPct float64) error {
	base, err := loadSuite(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	cand, err := loadSuite(candidatePath)
	if err != nil {
		return fmt.Errorf("candidate %s: %w", candidatePath, err)
	}
	if len(base.Scenarios) == 0 {
		return fmt.Errorf("baseline %s: no scenarios", baselinePath)
	}
	var violations []string
	matched := 0
	for _, b := range base.Scenarios {
		c, ok := findScenario(cand.Scenarios, b)
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: no candidate scenario", scenarioName(b)))
			continue
		}
		matched++
		name := scenarioName(b)
		if b.Config.Mix.Send > 0 {
			// Send scenarios are gated on an absolute throughput floor:
			// the one-way lane must sustain ≥10^6 served ops/s aggregate
			// (every windowed barrier proves its window was drained), with
			// no lost barrier replies. An absolute floor, not a relative
			// gate: the number is the scenario's reason to exist.
			violations = append(violations, checkSendFloor(name, c)...)
			fmt.Printf("%-24s send throughput %11.0f ops/s (floor %.0f)\n",
				name, c.Throughput, sendFloorOpsPerSec)
			continue
		}
		if b.Restarts > 0 {
			// Crash-restart scenarios are gated on durability correctness,
			// not latency: cycles must actually run and every registered
			// identity must survive every one of them.
			violations = append(violations, checkRestart(name, c)...)
			fmt.Printf("%-24s restarts %4d      lost identities %d\n",
				name, c.Restarts, c.LostIdentities)
			continue
		}
		if b.Config.MinActivities > 0 {
			// Scale scenarios run under node-kill chaos, so their latency
			// is gated elsewhere; what they must prove is correctness at
			// scale — the activity floor reached with zero lost replies.
			violations = append(violations, checkScale(name, b, c)...)
			fmt.Printf("%-24s activities %8d   lost replies %d\n",
				name, c.ActivitiesCreated, c.LostReplies)
			continue
		}
		baseP50 := b.Calls.Latency.P50Micros
		candP50 := c.Calls.Latency.P50Micros
		if baseP50 > 0 && candP50 > baseP50*(1+maxRegressPct/100) &&
			candP50-baseP50 > latencySlackMicros {
			violations = append(violations, fmt.Sprintf(
				"%s: p50 call latency %.0fµs → %.0fµs (+%.0f%%, limit +%.0f%%)",
				name, baseP50, candP50, 100*(candP50/baseP50-1), maxRegressPct))
		}
		baseCPS := callsPerSec(b)
		candCPS := callsPerSec(c)
		if baseCPS > 0 && candCPS < baseCPS*(1-maxRegressPct/100) {
			violations = append(violations, fmt.Sprintf(
				"%s: calls/sec %.0f → %.0f (-%.0f%%, limit -%.0f%%)",
				name, baseCPS, candCPS, 100*(1-candCPS/baseCPS), maxRegressPct))
		}
		fmt.Printf("%-24s p50 %5.0fµs → %5.0fµs   calls/s %8.0f → %8.0f\n",
			name, baseP50, candP50, baseCPS, candCPS)
	}
	if matched == 0 {
		return fmt.Errorf("no baseline scenario matched a candidate scenario")
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "REGRESSION:", v)
		}
		return fmt.Errorf("%d perf regression(s) beyond %.0f%%", len(violations), maxRegressPct)
	}
	fmt.Printf("perf gate passed: %d scenario(s) within %.0f%% of baseline\n", matched, maxRegressPct)
	return nil
}

func loadSuite(path string) (suiteDoc, error) {
	var doc suiteDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, err
	}
	return doc, nil
}

// findScenario matches named scenarios by name; unnamed ones (the
// original matrix) by substrate and batching mode.
func findScenario(scenarios []loadgen.Result, want loadgen.Result) (loadgen.Result, bool) {
	for _, s := range scenarios {
		if want.Config.Name != "" || s.Config.Name != "" {
			if s.Config.Name == want.Config.Name {
				return s, true
			}
			continue
		}
		if s.Config.Backend == want.Config.Backend && s.Batched == want.Batched {
			return s, true
		}
	}
	return loadgen.Result{}, false
}

func scenarioName(r loadgen.Result) string {
	if r.Config.Name != "" {
		return r.Config.Name
	}
	mode := "unbatched"
	if r.Batched {
		mode = "batched"
	}
	return r.Config.Backend + "/" + mode
}

// sendFloorOpsPerSec is the absolute gate on the one-way send scenario:
// a million served messages per second, aggregate, on the sim backend.
const sendFloorOpsPerSec = 1e6

// checkSendFloor gates a send scenario on its throughput floor and on
// every windowed barrier reply arriving.
func checkSendFloor(name string, c loadgen.Result) []string {
	var violations []string
	if c.Throughput < sendFloorOpsPerSec {
		violations = append(violations, fmt.Sprintf(
			"%s: %.0f ops/s, floor %.0f", name, c.Throughput, sendFloorOpsPerSec))
	}
	if c.LostReplies != 0 {
		violations = append(violations, fmt.Sprintf(
			"%s: %d lost replies, want 0", name, c.LostReplies))
	}
	return violations
}

// checkScale gates a scale scenario: the candidate must have created at
// least the configured activity floor and lost no replies doing it.
func checkScale(name string, b, c loadgen.Result) []string {
	var violations []string
	if floor := b.Config.MinActivities; c.ActivitiesCreated < floor {
		violations = append(violations, fmt.Sprintf(
			"%s: %d activities created, floor %d", name, c.ActivitiesCreated, floor))
	}
	if c.LostReplies != 0 {
		violations = append(violations, fmt.Sprintf(
			"%s: %d lost replies, want 0", name, c.LostReplies))
	}
	return violations
}

// checkRestart gates a crash-restart scenario: the chaos arm must have
// completed at least one kill-and-recover cycle, and zero registered
// durable identities may have been lost across all of them.
func checkRestart(name string, c loadgen.Result) []string {
	var violations []string
	if c.Restarts == 0 {
		violations = append(violations, fmt.Sprintf(
			"%s: no restart cycles ran", name))
	}
	if c.LostIdentities != 0 {
		violations = append(violations, fmt.Sprintf(
			"%s: %d lost registered identities, want 0", name, c.LostIdentities))
	}
	return violations
}

// callsPerSec is the gated throughput figure: completed calls of the
// call-workload lane over the measured duration.
func callsPerSec(r loadgen.Result) float64 {
	if r.DurationSeconds <= 0 {
		return 0
	}
	return float64(r.Calls.Ops) / r.DurationSeconds
}
