package main

import (
	"strings"
	"time"

	"repro/internal/core"
)

// metricDef describes one metric. BENCHMARK.json carries name, unit,
// better and (end to end) bound; layer and moves are the written-down
// expectation of which end-to-end metric a layer metric should move, on
// which workload, and live here and in README.md because the driver's
// file admits no further keys.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end to end only: share of the parent's median it may worsen by
	layer  string  // per layer only: the package it measures
	moves  string  // per layer only: what it should move
}

// endToEnd are the metrics a user of the runtime would see. Every
// workload reports every one of them. The bounds are sized to this host:
// ten runs of one binary spread the first three over up to 22 % of their
// median when the host has a slow spell (README.md, "Run shape and
// noise"), and the driver caps a bound at 25 %.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "op/s", better: "higher", bound: 0.25},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "op_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "collect_p50_beats", unit: "beats", better: "lower", bound: 0.15},
	{name: "collect_p95_beats", unit: "beats", better: "lower", bound: 0.15},
	{name: "dgc_bytes_per_collected", unit: "B", better: "lower", bound: 0.15},
	{name: "settled_heap_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	callMoves    = "op_p50_us, ops_per_s on call-sim"
	tcpMoves     = "op_p50_us on call-tcp; ops_per_s on window-tcp"
	windowMoves  = "ops_per_s on window-tcp; none on call-tcp"
	migrateMoves = "ops_per_s on migrate-churn"
	gcMoves      = "collect_p50_beats, collect_p95_beats, dgc_bytes_per_collected on gc-churn; none on the call workloads"
	noMoves      = "informational"
	perWorkload  = "read per workload beside its end-to-end metrics"
)

// perLayer are the single-layer metrics: the ladder (one public call of
// a package timed alone), counts taken on the workload being run, and
// what the traced pass attributes.
var perLayer = []metricDef{
	{name: "wire.marshal_ns", unit: "ns", better: "lower", layer: "wire", moves: callMoves},
	{name: "wire.encode_ns", unit: "ns", better: "lower", layer: "wire", moves: callMoves},
	{name: "wire.decode_ns", unit: "ns", better: "lower", layer: "wire", moves: callMoves},
	{name: "wire.unmarshal_ns", unit: "ns", better: "lower", layer: "wire", moves: callMoves},
	{name: "wire.deepcopy_ns", unit: "ns", better: "lower", layer: "wire", moves: "active.call_local_ns only: no workload calls within a node"},
	{name: "wire.encode_4k_ns", unit: "ns", better: "lower", layer: "wire", moves: windowMoves},
	{name: "wire.decode_4k_ns", unit: "ns", better: "lower", layer: "wire", moves: windowMoves},
	{name: "wire.encoded_bytes_64", unit: "B", better: "lower", layer: "wire", moves: "net.app_bytes_per_op on the call workloads (exact)"},
	{name: "wire.allocs_roundtrip", unit: "count", better: "lower", layer: "wire", moves: "proc.allocs_per_op on the call workloads (exact)"},

	{name: "transport.flusher_send_ns", unit: "ns", better: "lower", layer: "transport", moves: tcpMoves},
	{name: "transport.appendbatch_ns_per_item", unit: "ns", better: "lower", layer: "transport", moves: windowMoves},
	{name: "transport.walkbatch_ns_per_item", unit: "ns", better: "lower", layer: "transport", moves: windowMoves},
	{name: "transport.items_per_batch", unit: "count", better: "higher", layer: "transport", moves: "ops_per_s on window-tcp; must stay 1 on call-tcp"},
	{name: "transport.sendbatch_calls_per_op", unit: "count", better: "higher", layer: "transport", moves: windowMoves},
	{name: "transport.ep_send_us", unit: "us", better: "lower", layer: "transport", moves: perWorkload},
	{name: "transport.ep_sendbatch_us", unit: "us", better: "lower", layer: "transport", moves: perWorkload},
	{name: "transport.ep_call_us", unit: "us", better: "lower", layer: "transport", moves: perWorkload},
	{name: "transport.handler_oneway_us", unit: "us", better: "lower", layer: "transport", moves: perWorkload},
	{name: "transport.handler_call_us", unit: "us", better: "lower", layer: "transport", moves: perWorkload},

	{name: "simnet.send_ns", unit: "ns", better: "lower", layer: "simnet", moves: "op_p50_us on call-sim (2 hops per call)"},
	{name: "simnet.call_ns", unit: "ns", better: "lower", layer: "simnet", moves: "net.dgc_* cost on the sim workloads"},

	{name: "tcpnet.send_ns", unit: "ns", better: "lower", layer: "tcpnet", moves: tcpMoves},
	{name: "tcpnet.call_rtt_us", unit: "us", better: "lower", layer: "tcpnet", moves: "op_p50_us on call-tcp"},
	{name: "tcpnet.sendbatch_ns_per_item", unit: "ns", better: "lower", layer: "tcpnet", moves: windowMoves},
	{name: "tcpnet.send_4k_ns", unit: "ns", better: "lower", layer: "tcpnet", moves: windowMoves},
	{name: "tcpnet.dial_us", unit: "us", better: "lower", layer: "tcpnet", moves: "setup_s on call-tcp, window-tcp"},

	{name: "localgc.intern_ns", unit: "ns", better: "lower", layer: "localgc", moves: migrateMoves},
	{name: "localgc.newstub_ns", unit: "ns", better: "lower", layer: "localgc", moves: migrateMoves},
	{name: "localgc.root_add_remove_ns", unit: "ns", better: "lower", layer: "localgc", moves: migrateMoves},
	{name: "localgc.collect_us_10k", unit: "us", better: "lower", layer: "localgc", moves: "op_p50_us (the probe) on gc-churn; ops_per_s on migrate-churn"},

	{name: "core.tick_ns", unit: "ns", better: "lower", layer: "core", moves: "proc.cpu_us_per_op on gc-churn; no collect_* metric (beats, not CPU, set them)"},
	{name: "core.handle_message_ns", unit: "ns", better: "lower", layer: "core", moves: "proc.cpu_us_per_op on gc-churn"},
	{name: "core.msg_codec_ns", unit: "ns", better: "lower", layer: "core", moves: "proc.cpu_us_per_op on gc-churn"},
	{name: "core.msg_bytes", unit: "B", better: "lower", layer: "core", moves: "dgc_bytes_per_collected on every workload (exact)"},
	{name: "core.torture_collect_beats", unit: "beats", better: "lower", layer: "core", moves: gcMoves},
	{name: "core.torture_dgc_msgs", unit: "count", better: "lower", layer: "core", moves: gcMoves},
	{name: "core.torture_dgc_bytes", unit: "B", better: "lower", layer: "core", moves: gcMoves},
	{name: "core.ring_collect_beats_h8", unit: "beats", better: "lower", layer: "core", moves: gcMoves},
	{name: "core.ring_collect_beats_h32", unit: "beats", better: "lower", layer: "core", moves: gcMoves},

	{name: "sim.torture_wall_s", unit: "s", better: "lower", layer: "sim", moves: noMoves},
	{name: "sim.events_per_s", unit: "1/s", better: "higher", layer: "sim", moves: noMoves},

	{name: "active.call_local_ns", unit: "ns", better: "lower", layer: "active", moves: callMoves},
	{name: "active.call_xnode_ns", unit: "ns", better: "lower", layer: "active", moves: callMoves},
	{name: "active.call_xnode_dgc_ns", unit: "ns", better: "lower", layer: "active", moves: callMoves},
	{name: "active.send_ns", unit: "ns", better: "lower", layer: "active", moves: "ops_per_s on window-tcp"},
	{name: "active.allocs_per_call", unit: "count", better: "lower", layer: "active", moves: "proc.allocs_per_op on the call workloads (exact)"},
	{name: "active.spawn_us", unit: "us", better: "lower", layer: "active", moves: migrateMoves},
	{name: "active.handlefor_release_us", unit: "us", better: "lower", layer: "active", moves: migrateMoves},
	{name: "active.migrate_us", unit: "us", better: "lower", layer: "active", moves: migrateMoves},
	{name: "active.env_close_ms", unit: "ms", better: "lower", layer: "active", moves: noMoves},
	{name: "active.drain_s", unit: "s", better: "lower", layer: "active", moves: "settled_heap_mb on migrate-churn, gc-churn"},

	{name: "stage.issue_us", unit: "us", better: "lower", layer: "active", moves: "op_p50_us on the workload run"},
	{name: "stage.request_transit_us", unit: "us", better: "lower", layer: "active", moves: "op_p50_us on the workload run"},
	{name: "stage.method_us", unit: "us", better: "lower", layer: "active", moves: "op_p50_us on the workload run"},
	{name: "stage.reply_transit_us", unit: "us", better: "lower", layer: "active", moves: "op_p50_us on the workload run"},
	{name: "stage.latency_us", unit: "us", better: "lower", layer: "active", moves: "the sum of the four stages, by construction"},
	{name: "stage.residual_us", unit: "us", better: "lower", layer: "active", moves: "the transits less what wire.* and the substrate hop explain"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: "bench", moves: noMoves},

	{name: "location.ring_owner_ns", unit: "ns", better: "lower", layer: "location", moves: migrateMoves},
	{name: "location.cache_resolve_hit_ns", unit: "ns", better: "lower", layer: "location", moves: migrateMoves},
	{name: "location.cache_add_ns", unit: "ns", better: "lower", layer: "location", moves: migrateMoves},

	{name: "net.app_msgs_per_op", unit: "count", better: "lower", layer: "transport", moves: perWorkload},
	{name: "net.app_bytes_per_op", unit: "B", better: "lower", layer: "transport", moves: perWorkload},
	{name: "net.future_msgs_per_op", unit: "count", better: "lower", layer: "transport", moves: perWorkload},
	{name: "net.dgc_msgs_per_s", unit: "1/s", better: "lower", layer: "core", moves: "dgc_bytes_per_collected on the workload run"},
	{name: "net.dgc_bytes_per_s", unit: "B/s", better: "lower", layer: "core", moves: "dgc_bytes_per_collected on the workload run"},

	{name: "gc.detect_beats", unit: "beats", better: "lower", layer: "core", moves: "collect_p50_beats on gc-churn"},
	{name: "gc.wave_beats", unit: "beats", better: "lower", layer: "core", moves: "collect_p50_beats on gc-churn"},
	{name: "gc.ev_clock_advanced_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_parent_adopted_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_referencer_added_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_referencer_expired_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_referenced_added_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_referenced_lost_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_consensus_detected_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_entered_dying_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},
	{name: "gc.ev_terminated_per_s", unit: "1/s", better: "lower", layer: "core", moves: perWorkload},

	{name: "proc.cpu_us_per_op", unit: "us", better: "lower", layer: "process", moves: "ops_per_s where proc.cpu_util is near 2"},
	{name: "proc.cpu_util", unit: "cores", better: "lower", layer: "process", moves: "says whether a throughput drop can be read as cost"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower", layer: "process", moves: perWorkload},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower", layer: "process", moves: perWorkload},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower", layer: "process", moves: "op_p99_us on the workload run"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower", layer: "process", moves: noMoves},
	{name: "proc.goroutines_end", unit: "count", better: "lower", layer: "process", moves: noMoves},
	{name: "proc.calib_ns", unit: "ns", better: "lower", layer: "process", moves: "the host's drift: every timing moves with it"},
	{name: "op_p999_us", unit: "us", better: "lower", layer: "process", moves: "ungated tail: does not repeat within a tenth"},
	{name: "op_max_us", unit: "us", better: "lower", layer: "process", moves: "ungated tail: does not repeat within a tenth"},
}

// eventMetric names the per-second count of a collector event kind:
// "referencer-added" is counted in gc.ev_referencer_added_per_s.
func eventMetric(k core.EventKind) string {
	return "gc.ev_" + strings.ReplaceAll(k.String(), "-", "_") + "_per_s"
}

// The deployments. The call and migration workloads run at full load, so
// their beats are paced for a loaded machine (the repo's loadgen uses the
// same pair); gc-churn keeps the processor mostly idle and beats faster,
// so that a run pools some two hundred rings.
var (
	loadedSim = bedSpec{ttb: 100 * time.Millisecond, tta: time.Second}
	loadedTCP = bedSpec{tcp: true, ttb: 100 * time.Millisecond, tta: time.Second}
	gcSim     = bedSpec{ttb: 50 * time.Millisecond, tta: 400 * time.Millisecond}
)

// workloads are the five scenarios; README.md says why each exists.
var workloads = []*workload{
	{
		name:         "call-sim",
		why:          "2 closed-loop callers, sync 64 B echo to 16 actors on 4 nodes over simnet: active+wire do the work, latency-bound",
		bed:          loadedSim,
		payloadBytes: 64,
		start:        startCalls(1, 20000),
	},
	{
		name:         "call-tcp",
		why:          "the same over loopback TCP: tcpnet framing, syscalls and the flusher's idle lane dominate; batching must not move it",
		bed:          loadedTCP,
		payloadBytes: 64,
		start:        startCalls(1, 8000),
	},
	{
		name:         "window-tcp",
		why:          "2 callers keep 32 async 4 KiB calls in flight over TCP: CPU-bound, co-destination messages pending, where batching gains",
		bed:          loadedTCP,
		payloadBytes: 4096,
		start:        startCalls(32, 8192),
	},
	{
		name:         "migrate-churn",
		why:          "spawn, call, migrate, call through the stale handle, release: the only workload on location, forwarders and redirects",
		bed:          loadedSim,
		payloadBytes: 0,
		start:        startMigrate(3000),
	},
	{
		name:         "gc-churn",
		why:          "a garbage ring of 8 every 50 ms beside 8 live rings and a paced probe: core, localgc and the drivers work, the call path idles",
		bed:          gcSim,
		payloadBytes: 64,
		start:        startGCChurn(16, 40000),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
