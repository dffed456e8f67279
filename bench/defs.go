package main

// The metric catalogue. BENCHMARK.json lists exactly these names and
// units (TestBenchmarkJSONMatchesCatalogue keeps the two in step).

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a participant or operator would see. Every
// workload reports every one of them; bench/README.md says what each
// means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"notify_p50_ms", "ms", "lower", 0.25},
	{"notify_p95_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
}

// perLayer are single-layer metrics, <layer>.<name>, layers named after
// this repo's packages on the request path. A metric a workload cannot
// produce reads 0 there.
var perLayer = []metricDef{
	{"fs.syncs_per_op", "count", "lower", 0},
	{"fs.bytes_per_op", "count", "lower", 0},
	{"fs.wal_commit_ms", "ms", "lower", 0},
	{"fs.journal_commit_ms", "ms", "lower", 0},
	{"enact.apply_ms", "ms", "lower", 0},
	{"enact.wal_appends_per_op", "count", "lower", 0},
	{"enact.stripe_contended_ratio", "ratio", "lower", 0},
	{"enact.op_us_nosync", "us", "lower", 0},
	{"enact.recover_ms", "ms", "lower", 0},
	{"awareness.detect_ms", "ms", "lower", 0},
	{"awareness.match_ratio", "ratio", "higher", 0},
	{"cedmos.detect_mean_us", "us", "lower", 0},
	{"cedmos.detect_ns_per_event", "ns", "lower", 0},
	{"delivery.preload_ms", "ms", "lower", 0},
	{"delivery.enqueue_us", "us", "lower", 0},
	{"delivery.fanout16_us", "us", "lower", 0},
	{"delivery.ack_us", "us", "lower", 0},
	{"delivery.pending16_us", "us", "lower", 0},
	{"delivery.commit_batch_mean", "count", "higher", 0},
	{"delivery.append_mean_us", "us", "lower", 0},
	{"delivery.history_per_queue_end", "count", "lower", 0},
	{"stream.broadcast_ms", "ms", "lower", 0},
	{"stream.push_ms", "ms", "lower", 0},
	{"stream.frame_write_mean_us", "us", "lower", 0},
	{"stream.dropped_to_replay", "count", "lower", 0},
	{"stream.frame_ns_per_notif", "ns", "lower", 0},
	{"federation.request_in_ms", "ms", "lower", 0},
	{"federation.response_out_ms", "ms", "lower", 0},
	{"federation.http_write_mean_us", "us", "lower", 0},
	{"federation.http_read_mean_us", "us", "lower", 0},
	{"federation.handler_read_us", "us", "lower", 0},
	{"federation.push_mean_ms", "ms", "lower", 0},
	{"federation.spool_add_us", "us", "lower", 0},
	{"federation.spool_done_us", "us", "lower", 0},
	{"federation.retries", "count", "lower", 0},
	{"federation.spool_depth_end", "count", "lower", 0},
	{"wire.frame_roundtrip_ns", "ns", "lower", 0},
	{"wire.pool_hit_ratio", "ratio", "higher", 0},
	{"system.cpu_ms_per_op", "ms", "lower", 0},
	{"system.rss_peak_mb", "MB", "lower", 0},
	{"system.recover_ms", "ms", "lower", 0},
	{"system.boot_ms", "ms", "lower", 0},
	{"system.build_s", "s", "lower", 0},
	{"system.steal_ratio", "ratio", "lower", 0},
	{"adl.parse_ms", "ms", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"client.op_p99_ms", "ms", "lower", 0},
	{"client.notify_p99_ms", "ms", "lower", 0},
	{"client.stall_max_ms", "ms", "lower", 0},
	{"client.fail_ratio", "ratio", "lower", 0},
	{"trace.unaccounted_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
