package main

import "fmt"

// metricDef names one reported metric with its unit. BENCHMARK.json lists
// the same names and units (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the untraced pass's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"core_cycles_per_s", "1/s"},
	{"alloc_bytes_per_point", "B"},
	{"allocs_per_point", "count"},
	{"setup_s", "s"},
}

// perLayer are the traced pass's metrics. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"spec.grid_ms", "ms"},
	{"soc.new_pair_ms_p50", "ms"},
	{"soc.new_pair_share", "ratio"},
	{"soc.new_pair_alloc_bytes", "B"},
	{"campaign.run_one_ms_p50", "ms"},
	{"campaign.run_one_ms_p90", "ms"},
	{"campaign.simulate_ms_p50", "ms"},
	{"campaign.run_one_ms_p50.secure-stream", "ms"},
	{"campaign.run_one_ms_p50.secure-scrub", "ms"},
	{"campaign.run_one_ms_p50.cipher-mix", "ms"},
	{"cpu.stall_share", "ratio"},
	{"cpu.ipc", "ratio"},
	{"core.fw_checks_per_point", "count"},
	{"core.fw_blocked_per_point", "count"},
	{"core.alerts_per_point", "count"},
	{"core.lcf_crypto_cycles_per_point.secure-stream", "cycles"},
	{"core.lcf_crypto_cycles_per_point.secure-scrub", "cycles"},
	{"core.lcf_crypto_cycles_per_point.cipher-mix", "cycles"},
	{"recovery.windows_per_point", "count"},
	{"recovery.quarantines_per_point", "count"},
	{"sweep.marshal_us_per_record", "us"},
	{"sweep.record_bytes", "B"},
	{"sweep.worker_idle_share", "ratio"},
	{"sweep.pipeline_self_share", "ratio"},
	{"first_record_ms_p50", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.sweep_job_ms_p50", "ms"},
	{"server.service_overhead_ms_p50", "ms"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"journal.appends_per_job", "count"},
	{"journal.fsync_us_mean", "us"},
	{"journal.fsync_share", "ratio"},
	{"server.coord_dispatches_per_job", "count"},
	{"server.shard_retries", "count"},
	{"server.coord_failovers", "count"},
	{"server.shards_poisoned", "count"},
	{"hosttrace.coordinator.dispatch_ms_per_job", "ms"},
	{"hosttrace.coordinator.journal_fsync_ms_per_job", "ms"},
	{"hosttrace.backend.execute_ms_per_job", "ms"},
	{"error_rate", "ratio"},
	{"trace.untraced_points_per_s", "1/s"},
	{"trace.traced_points_per_s", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// complete checks the outcome's metrics against the definitions for its
// pass: every end-to-end metric must have been measured, absent per-layer
// metrics read 0, and nothing undeclared is reported.
func (o *outcome) complete(traced bool) error {
	if traced {
		o.set("error_rate", "ratio", ratio(float64(o.failed), float64(max(o.attempted, 1))))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		m, ok := o.metrics[d.name]
		switch {
		case !ok && traced:
			o.set(d.name, d.unit, 0)
		case !ok:
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
	}
	for name := range o.metrics {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
