package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json, the driver's description of this
// benchmark.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestRegistryMatchesBenchmarkJSON holds BENCHMARK.json and the code's
// registry to the same names, units, directions and bounds.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(f.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !legalName.MatchString(name) {
			t.Errorf("illegal name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has (%q, %q), registry (%q, %q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the registry %d", len(f.EndToEnd), len(endToEnd))
	}
	var setup bool
	for i, m := range f.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: file has %+v, registry %+v", i, m, d)
		}
		if !legalUnit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v out of range", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the registry %d (at most 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: file has %+v, registry (%s, %s, %s)", i, m, d.name, d.unit, d.better)
		}
		if !legalUnit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q or direction %q illegal", m.Name, m.Unit, m.Better)
		}
		if d.layer == "" || d.moves == "" {
			t.Errorf("per-layer %s: the registry must say its layer and what it should move", d.name)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload for a fifth of a
// second, untraced and traced, and checks that the result lines carry
// every metric BENCHMARK.json names, once, with a finite value, and that
// no operation failed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	ladder, err := runLadder(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runner{seed: 7, stdout: io.Discard, stderr: io.Discard}
			const measure = 200 * time.Millisecond
			plain, err := r.round(w, measure, nil, "plain")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, endToEndReport(w, []roundResult{plain}), false, endToEnd)

			layers, err := r.traced(w, plain, measure, ladder)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, layers, true, perLayer)
			st := layers.PerLayer
			sum := st["stage.issue_us"].Value + st["stage.request_transit_us"].Value + st["stage.method_us"].Value + st["stage.reply_transit_us"].Value
			if lat := st["stage.latency_us"].Value; lat <= 0 || math.Abs(sum-lat) > 0.01*lat {
				t.Errorf("stages sum to %.3f us, traced latency is %.3f us", sum, lat)
			}
		})
	}
}

func checkResult(t *testing.T, rep report, traced bool, defs []metricDef) {
	t.Helper()
	if rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Errors)
	}
	var out, errOut bytes.Buffer
	if code := printResult(&out, &errOut, rep, traced); code != 0 {
		t.Fatalf("printResult = %d: %s", code, errOut.String())
	}
	var res struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]resultValue `json:"metrics"`
	}
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || !*res.Correct {
		t.Errorf("result line lacks a key or is not correct: %s", out.String())
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.name, v.Value, v.Unit, d.unit)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v.Value)
		}
	}
}

// digest fingerprints the inputs, for the same-seed-same-inputs test.
func (in inputs) digest() uint64 {
	h := fnv.New64a()
	h.Write(in.payload)
	for w := range in.targets {
		h.Write(in.targets[w])
	}
	h.Write(in.places)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(in.payload)))
	h.Write(n[:])
	return h.Sum64()
}

// TestSeedDecidesInputs: the same seed regenerates the same inputs, a
// different seed different ones.
func TestSeedDecidesInputs(t *testing.T) {
	for _, size := range []int{0, 64, 4096} {
		a, b, c := genInputs(11, size), genInputs(11, size), genInputs(12, size)
		if a.digest() != b.digest() {
			t.Errorf("payload %d: seed 11 gave two different input sequences", size)
		}
		if a.digest() == c.digest() {
			t.Errorf("payload %d: seeds 11 and 12 gave the same input sequence", size)
		}
	}
	in := genInputs(3, 64)
	for i := 0; i < 1000; i++ {
		src, dst := in.migration(i)
		if src == dst || src < 0 || src >= workerNodes || dst < 0 || dst >= workerNodes {
			t.Fatalf("migration %d: %d -> %d", i, src, dst)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q      float64
		v      int64
		beyond int
	}{{0.5, 5, 5}, {0.9, 9, 1}, {0.99, 10, 0}, {0, 1, 9}} {
		if v, beyond := percentile(s, c.q); v != c.v || beyond != c.beyond {
			t.Errorf("percentile(%v) = %d with %d beyond, want %d with %d", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	for _, c := range []struct {
		vals []float64
		q, v float64
	}{{[]float64{4, 1, 3, 2, 5}, 0.25, 2}, {[]float64{4, 1, 3, 2, 5}, 0.75, 4}, {[]float64{2, 1}, 0.5, 1.5}, {[]float64{7}, 0.25, 7}, {nil, 0.25, 0}} {
		if got := quantile(c.vals, c.q); got != c.v {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.vals, c.q, got, c.v)
		}
	}
}

// TestCompare: -compare passes two like files, and fails when an
// end-to-end metric worsened by more than its bound or failures rose.
func TestCompare(t *testing.T) {
	mk := func(ops, failed float64) doc {
		return doc{Reports: []report{{
			Workload: "call-sim", Rounds: 3, Attempted: 1000, Failed: int(failed),
			EndToEnd: map[string]spread{
				"ops_per_s": {Value: ops, Min: ops * 0.99, Max: ops * 1.01},
				"op_p50_us": {Value: 10, Min: 6, Max: 14},
			},
			PerLayer: map[string]spread{"core.msg_bytes": {Value: 25}},
		}}}
	}
	var out bytes.Buffer
	if code := compareDocs(mk(100, 0), mk(97, 0), &out); code != 0 {
		t.Errorf("3%% slower flagged: %s", out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a metric whose rounds span 80%% of its value must read unresolved: %s", out.String())
	}
	if code := compareDocs(mk(100, 0), mk(50, 0), &out); code != 1 {
		t.Error("half the throughput not flagged")
	}
	if code := compareDocs(mk(100, 0), mk(100, 5), &out); code != 1 {
		t.Error("a risen failed share not flagged")
	}

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeDoc(a, mk(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := writeDoc(b, mk(101, 0)); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-compare", a, b}, io.Discard, io.Discard); code != 0 {
		t.Errorf("bench -compare of two like files = %d", code)
	}
	if code := run([]string{"-compare", a}, io.Discard, io.Discard); code != 2 {
		t.Errorf("bench -compare with one file = %d, want 2", code)
	}
}

// TestSliceStatistics: the settling slice stays out of the slice
// statistics, and a run's value is read at the quiet quartile of the rest.
func TestSliceStatistics(t *testing.T) {
	start := time.Now()
	tl := newTallies(start, 5*sliceLen, 16)
	// Slice k holds k+1 operations of latency (k+1) us.
	for k := 0; k < 5; k++ {
		at := start.Add(time.Duration(k)*sliceLen + sliceLen/2)
		for i := 0; i <= k; i++ {
			tl.samples[0].add(at, int64(k+1)*1000)
		}
	}
	tl.close(start.Add(5 * sliceLen))
	ss := tl.sliceStats()
	if len(ss) != 5-settleSlices {
		t.Fatalf("%d slices counted, want %d", len(ss), 5-settleSlices)
	}
	if ss[0].p50 != settleSlices+1 || ss[0].n != settleSlices+1 {
		t.Errorf("first counted slice = %+v, want the one after the settling slices", ss[0])
	}
	// Slices 2..5: latencies 2, 3, 4, 5 us, rates 2, 3, 4, 5 per second.
	if got := overSlices([][]sliceStat{ss}, false, func(s sliceStat) float64 { return s.p50 }).Value; got != 2.75 {
		t.Errorf("latency over slices = %v, want the first quartile 2.75", got)
	}
	if got := overSlices([][]sliceStat{ss}, true, func(s sliceStat) float64 { return s.rate }).Value; got != 4.25 {
		t.Errorf("rate over slices = %v, want the third quartile 4.25", got)
	}
}
