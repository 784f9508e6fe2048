package main

// layerSpec names one per-layer metric and its unit.
type layerSpec struct {
	name, unit, better string
}

// perLayerSpecs lists every per-layer metric of a traced run, in the order
// of README.md's table. Every workload reports all of them; a layer a
// workload does not exercise reads 0. BENCHMARK.json carries the same list.
var perLayerSpecs = []layerSpec{
	// netsim: the engines (source: handler spans, counters, no-op probe).
	{"netsim.self_s", "s", "lower"},
	{"netsim.self_share", "ratio", "lower"},
	{"netsim.worker_busy_share", "ratio", "higher"},
	{"netsim.parallel_speedup", "ratio", "higher"},
	{"netsim.allocs_per_event", "count", "lower"},
	{"netsim.scheduler_state_mb", "MB", "lower"},
	{"netsim.noop_inject_ns.sequential", "ns", "lower"},
	{"netsim.noop_inject_ns.concurrent", "ns", "lower"},
	{"netsim.event_load", "count", "lower"},
	{"netsim.subscription_load", "count", "lower"},
	{"netsim.unsubscription_load", "count", "lower"},
	{"netsim.deliveries", "count", "higher"},
	{"netsim.dropped_messages", "count", "lower"},
	// core: the protocol handlers (source: handler spans).
	{"core.local_publish.busy_s", "s", "lower"},
	{"core.local_publish.calls", "count", "lower"},
	{"core.handle_event.busy_s", "s", "lower"},
	{"core.handle_event.calls", "count", "lower"},
	{"core.handle_event.p99_us", "us", "lower"},
	{"core.handle_subscription.busy_s", "s", "lower"},
	{"core.handle_subscription.calls", "count", "lower"},
	{"core.handle_unsubscription.busy_s", "s", "lower"},
	{"core.handle_unsubscription.calls", "count", "lower"},
	{"core.handle_advertisement.busy_s", "s", "lower"},
	// set-up.
	{"sensorcq.new_system_s", "s", "lower"},
	{"topology.generate_s", "s", "lower"},
	{"dataset.generate_s", "s", "lower"},
	{"workload.generate_s", "s", "lower"},
	{"bench.reference_run_s", "s", "lower"},
	// stores / geom / model / subsume (source: probes over the workload's
	// own subscriptions and readings, and IndexStats).
	{"stores.index.stab_ns", "ns", "lower"},
	{"stores.index.candidates_per_lookup", "count", "lower"},
	{"stores.index.add_ns", "ns", "lower"},
	{"stores.index.remove_ns", "ns", "lower"},
	{"stores.index.bulkload_ms", "ms", "lower"},
	{"stores.window.insert_ns", "ns", "lower"},
	{"stores.window.around_ns", "ns", "lower"},
	{"stores.window.prune_ns", "ns", "lower"},
	{"geom.boxtree.stab_ns", "ns", "lower"},
	{"geom.boxtree.insert_ns", "ns", "lower"},
	{"geom.boxtree.remove_ns", "ns", "lower"},
	{"model.match.enumerate_ns", "ns", "lower"},
	{"model.match.matches_event_ns", "ns", "lower"},
	{"model.match.matches_per_trigger", "count", "lower"},
	{"subsume.check_ns", "ns", "lower"},
	{"subsume.covered_ratio", "ratio", "higher"},
	// sensorcq: the public facade (source: spans around its calls).
	{"sensorcq.system_overhead_share", "ratio", "lower"},
	{"sensorcq.subscribe_p50_us", "us", "lower"},
	{"sensorcq.unsubscribe_p50_us", "us", "lower"},
	{"sensorcq.handle.delivered", "count", "higher"},
	{"sensorcq.handle.dropped_pushes", "count", "lower"},
	// server: the daemon (source: HTTP middleware, client spans, probes).
	{"server.events.handler_s", "s", "lower"},
	{"server.events.self_s", "s", "lower"},
	{"server.http.transport_s", "s", "lower"},
	{"server.wire.decode_ns_per_event", "ns", "lower"},
	{"server.wire.encode_ns_per_frame", "ns", "lower"},
	{"server.register.handler_p50_ms", "ms", "lower"},
	{"server.stream.emit_lag_p50_ms", "ms", "lower"},
	{"server.stream.emit_lag_p95_ms", "ms", "lower"},
	{"server.stream.frames", "count", "higher"},
	{"server.delivery_latency_p99_ms", "ms", "lower"},
	{"server.generator_lag_max_ms", "ms", "lower"},
	// how far to trust the rows above.
	{"trace.overhead_ratio", "ratio", "lower"},
}
