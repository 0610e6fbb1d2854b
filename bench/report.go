package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/transport"
)

// report is what one workload produced: its operation counts and either
// its end-to-end metrics (untraced rounds) or its per-layer ones.
type report struct {
	Workload  string            `json:"workload"`
	Rounds    int               `json:"rounds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]spread `json:"end_to_end,omitempty"`
	PerLayer  map[string]spread `json:"per_layer,omitempty"`
	// Samples says how many samples stand behind each percentile and how
	// many of them lie beyond it.
	Samples map[string][2]int `json:"samples,omitempty"`
}

func (r *report) count(rounds []roundResult) {
	r.Rounds += len(rounds)
	for i := range rounds {
		r.Attempted += rounds[i].ops + rounds[i].failed
		r.Failed += rounds[i].failed
		r.Errors = append(r.Errors, rounds[i].errs...)
	}
}

// sliceStat is one time slice of a round's measured phase.
type sliceStat struct {
	rate     float64 // completed operations per second
	p50, p99 float64 // latency percentiles, us
	n        int     // samples
	beyond   int     // samples beyond the 99th percentile
}

// settleSlices is how many leading slices of a measured phase stay out of
// the slice statistics. A fresh Env is not in its steady state when the
// fixed-count warm-up ends: the first collector beats, the location cache
// and the garbage population are still filling, and the first second reads
// unlike the rest (call-sim p50 5.6 us against 7.0; migrate-churn a third
// more lifecycles). Its operations are verified and counted all the same.
const settleSlices = 1

// sliceStats reduces a round's samples slice by slice, the settling ones
// left out. A slice in which nothing completed has no percentiles and is
// left out too.
func (t *tallies) sliceStats() []sliceStat {
	var out []sliceStat
	var merged []int64
	for k := min(settleSlices, t.slices-1); k < t.slices; k++ {
		merged = merged[:0]
		for w := range t.samples {
			merged = append(merged, t.samples[w].slice(k)...)
		}
		if len(merged) == 0 {
			continue
		}
		slices.Sort(merged)
		p50, _ := percentile(merged, 0.50)
		p99, beyond := percentile(merged, 0.99)
		out = append(out, sliceStat{
			rate: float64(len(merged)) / t.every.Seconds(),
			p50:  usOf(p50), p99: usOf(p99), n: len(merged), beyond: beyond,
		})
	}
	return out
}

// allLatencies returns every sample of a round, ascending.
func (t *tallies) allLatencies() []int64 {
	var all []int64
	for w := range t.samples {
		all = append(all, t.samples[w].lat...)
	}
	slices.Sort(all)
	return all
}

// quietQuartile is where in the order of a run's slices its value is read:
// the first quartile of a latency, the third of a rate. The host's other
// tenants only ever add latency and take throughput, for seconds at a
// time, so the quieter quarter of the slices says more about the program
// than their median does: it holds still until three slices in four are
// disturbed, the median until one in two.
const quietQuartile = 0.25

// overSlices is the quiet quartile of f over every slice of every round
// (the third quartile when more of f is better, the first when less),
// with the range the rounds' own quartiles cover.
func overSlices(perRoundSlices [][]sliceStat, higherIsBetter bool, f func(sliceStat) float64) spread {
	q := quietQuartile
	if higherIsBetter {
		q = 1 - quietQuartile
	}
	var all, own []float64
	for _, ss := range perRoundSlices {
		one := make([]float64, len(ss))
		for i, st := range ss {
			one[i] = f(st)
		}
		if len(one) > 0 {
			own = append(own, quantile(one, q))
		}
		all = append(all, one...)
	}
	s := medianSpread(own)
	s.Value = quantile(all, q)
	return s
}

// pooledQuantile is the q-quantile over the pooled samples of all
// rounds, with the range the rounds' own quantiles cover.
func pooledQuantile(per [][]float64, q float64) (spread, [2]int) {
	var pooled, own []float64
	for _, one := range per {
		slices.Sort(one)
		if len(one) > 0 {
			v, _ := percentile(one, q)
			own = append(own, v)
		}
		pooled = append(pooled, one...)
	}
	slices.Sort(pooled)
	s := medianSpread(own)
	var beyond int
	s.Value, beyond = percentile(pooled, q)
	return s, [2]int{len(pooled), beyond}
}

func perRound(rounds []roundResult, f func(*roundResult) float64) spread {
	vals := make([]float64, len(rounds))
	for i := range rounds {
		vals[i] = f(&rounds[i])
	}
	return medianSpread(vals)
}

// endToEndReport reduces a workload's untraced rounds to the end-to-end
// metrics. Throughput and latency percentiles are the quiet quartile over
// the one-second slices of all rounds; collection percentiles are taken over
// the pooled structures of all rounds; per-collected bytes, settled heap
// and set-up are the median of the per-round values.
func endToEndReport(w *workload, rounds []roundResult) report {
	r := report{Workload: w.name, EndToEnd: make(map[string]spread), Samples: make(map[string][2]int)}
	r.count(rounds)
	perRoundSlices := make([][]sliceStat, len(rounds))
	var samples, fewestBeyond int
	for i := range rounds {
		perRoundSlices[i] = rounds[i].sliceStats()
		for j, st := range perRoundSlices[i] {
			samples += st.n
			if (i == 0 && j == 0) || st.beyond < fewestBeyond {
				fewestBeyond = st.beyond
			}
		}
	}
	r.EndToEnd["ops_per_s"] = overSlices(perRoundSlices, true, func(s sliceStat) float64 { return s.rate })
	r.EndToEnd["op_p50_us"] = overSlices(perRoundSlices, false, func(s sliceStat) float64 { return s.p50 })
	r.EndToEnd["op_p99_us"] = overSlices(perRoundSlices, false, func(s sliceStat) float64 { return s.p99 })
	r.Samples["op_p99_us"] = [2]int{samples, fewestBeyond}

	perBeats := make([][]float64, len(rounds))
	for i := range rounds {
		perBeats[i] = slices.Clone(rounds[i].gc.collectBeats)
	}
	r.EndToEnd["collect_p50_beats"], r.Samples["collect_p50_beats"] = pooledQuantile(perBeats, 0.50)
	r.EndToEnd["collect_p95_beats"], r.Samples["collect_p95_beats"] = pooledQuantile(perBeats, 0.95)
	r.EndToEnd["dgc_bytes_per_collected"] = perRound(rounds, func(x *roundResult) float64 {
		return float64(x.dgcBytes) / float64(max(x.gc.collected, 1))
	})
	r.EndToEnd["settled_heap_mb"] = perRound(rounds, func(x *roundResult) float64 { return x.settledHeapMB })
	r.EndToEnd["setup_s"] = perRound(rounds, func(x *roundResult) float64 { return x.setupS })
	return r
}

// perLayerReport assembles the per-layer metrics of one workload from an
// untraced round (counters and process cost of the undisturbed run), a
// traced round of the same length (stages, transport timings) and the
// layer ladder.
func perLayerReport(w *workload, plain, traced roundResult, tr *tracer, ladder map[string]float64) report {
	r := report{Workload: w.name, PerLayer: make(map[string]spread), Samples: make(map[string][2]int)}
	r.count([]roundResult{traced})
	set := func(name string, v float64) { r.PerLayer[name] = spread{Value: v, Min: v, Max: v} }
	for name, v := range ladder {
		set(name, v)
	}

	ops := float64(max(plain.ops, 1))
	set("net.app_msgs_per_op", float64(plain.net.Messages[transport.ClassApp])/ops)
	set("net.app_bytes_per_op", float64(plain.net.Bytes[transport.ClassApp])/ops)
	set("net.future_msgs_per_op", float64(plain.net.Messages[transport.ClassFuture])/ops)
	set("net.dgc_msgs_per_s", float64(plain.net.Messages[transport.ClassDGC])/plain.measuredS)
	set("net.dgc_bytes_per_s", float64(plain.net.Bytes[transport.ClassDGC])/plain.measuredS)

	set("proc.cpu_us_per_op", float64(plain.proc.cpu.Microseconds())/ops)
	set("proc.cpu_util", plain.proc.cpu.Seconds()/plain.measuredS)
	set("proc.allocs_per_op", float64(plain.proc.mallocs)/ops)
	set("proc.alloc_bytes_per_op", float64(plain.proc.allocBytes)/ops)
	set("proc.gc_pause_ms", float64(plain.proc.gcPause.Microseconds())/1e3)
	set("proc.peak_rss_mb", plain.proc.peakRSSMB)
	set("proc.goroutines_end", float64(plain.goroutinesEnd))
	set("proc.calib_ns", plain.calibNs)
	set("active.drain_s", plain.drainS)
	set("active.env_close_ms", plain.envCloseMs)

	pooled := plain.allLatencies()
	p999, beyond := percentile(pooled, 0.999)
	set("op_p999_us", usOf(p999))
	r.Samples["op_p999_us"] = [2]int{len(pooled), beyond}
	if len(pooled) > 0 {
		set("op_max_us", usOf(pooled[len(pooled)-1]))
	} else {
		set("op_max_us", 0)
	}
	set("gc.detect_beats", median(plain.gc.detectBeats))
	set("gc.wave_beats", median(plain.gc.waveBeats))

	for k := core.EventClockAdvanced; k <= core.EventTerminated; k++ {
		set(eventMetric(k), float64(traced.eventKinds[k])/(traced.measuredS+traced.drainS))
	}
	st := tr.stages()
	set("stage.issue_us", st.issue)
	set("stage.request_transit_us", st.request)
	set("stage.method_us", st.method)
	set("stage.reply_transit_us", st.reply)
	set("stage.latency_us", st.latency)
	r.Samples["stage.latency_us"] = [2]int{st.n, 0}
	// What the ladder explains of the two transits: encoding and decoding
	// the request and the reply, and one substrate hop each way.
	enc, dec, hop := ladder["wire.encode_ns"], ladder["wire.decode_ns"], ladder["simnet.send_ns"]
	if w.payloadBytes > 1024 {
		enc, dec = ladder["wire.encode_4k_ns"], ladder["wire.decode_4k_ns"]
	}
	if w.bed.tcp {
		hop = ladder["tcpnet.call_rtt_us"] * 1e3 / 2
	}
	set("stage.residual_us", st.request+st.reply-(2*(enc+dec)+2*hop)/1e3)

	nt := &tr.net
	tops := float64(max(traced.ops, 1))
	set("transport.items_per_batch", nt.itemsPerFrame())
	set("transport.sendbatch_calls_per_op", float64(nt.sendBatch.n.Load())/tops)
	set("transport.ep_send_us", nt.send.meanUs())
	set("transport.ep_sendbatch_us", nt.sendBatch.meanUs())
	set("transport.ep_call_us", nt.call.meanUs())
	set("transport.handler_oneway_us", nt.handleOneWay.meanUs())
	set("transport.handler_call_us", nt.handle.meanUs())
	plainRate := float64(plain.ops) / plain.measuredS
	set("trace.overhead_pct", 100*(plainRate-float64(traced.ops)/traced.measuredS)/plainRate)
	return r
}

// print writes the report as one line per metric: name, value, unit, the
// rounds' min and max, and the sample counts behind percentiles.
func (r *report) print(out io.Writer, defs []metricDef, vals map[string]spread) {
	for _, d := range defs {
		s, ok := vals[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14s %-6s", d.name, formatValue(s.Value), d.unit)
		if r.Rounds > 1 && s.Min != s.Max {
			line += fmt.Sprintf("  rounds %s .. %s", formatValue(s.Min), formatValue(s.Max))
		}
		if n, ok := r.Samples[d.name]; ok {
			line += fmt.Sprintf("  (%d samples, %d beyond)", n[0], n[1])
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
