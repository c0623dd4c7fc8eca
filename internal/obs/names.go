package obs

import "regexp"

// MetricNameRE is the naming convention every registered metric must
// follow: a lowercase package/domain prefix, then one or more
// dot-separated noun_verb segments ("repair.finishes_inserted",
// "race.stage_detect_ns"). Dashes and uppercase are rejected.
var MetricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9_]*)+$`)

// KnownMetrics is the manifest of every metric the instrumented packages
// register, mapped to its kind. The names audit test asserts that the
// default registry's contents stay a subset of this table (ignoring the
// "test." prefix reserved for tests), so adding a metric means adding a
// row here — which keeps README's metric table honest and catches
// name drift at test time.
var KnownMetrics = map[string]string{
	// taskpar: the Habanero-Java-style async/finish runtime.
	"taskpar.asyncs":       "counter",
	"taskpar.finish_waits": "counter",
	"taskpar.yields":       "counter",

	// sched: the work-stealing scheduler.
	"sched.spawns":         "counter",
	"sched.global_submits": "counter",
	"sched.steals":         "counter",

	// race: dynamic detection (ESP-bags / vector clocks over the trace IR).
	"race.detect_runs":    "counter",
	"race.races_found":    "counter",
	"race.raw_reports":    "counter",
	"race.races_per_run":  "histogram",
	"race.sdpst_nodes":    "gauge",
	"race.trace_captures": "counter",
	"race.analyze_ns":     "histogram",
	"race.shadow_cells":   "histogram",
	"race.stream_chunks":  "counter",
	"race.dual_queries":   "counter",

	// repair: the test-driven finish-placement loop.
	"repair.iterations":          "counter",
	"repair.races_detected":      "counter",
	"repair.finishes_inserted":   "counter",
	"repair.degraded_placements": "counter",
	"repair.trace_replays":       "counter",
	"repair.dp_states":           "counter",
	"repair.dp_states_per_group": "histogram",
	"repair.fallback_placements": "counter",
	"repair.graph_size":          "histogram",
	"repair.stage_detect_ns":     "histogram",
	"repair.stage_place_ns":      "histogram",
	"repair.stage_rewrite_ns":    "histogram",
	"repair.strategy_chosen":     "counter",
	"repair.cpl_delta":           "histogram",
	"repair.lock_classes":        "counter",

	// analysis/commute: static commutativity recognition and the
	// semantic order probe backing every "commutes" verdict.
	"analysis.commute_verdicts":  "counter",
	"analysis.commute_confirmed": "counter",
	"analysis.commute_refuted":   "counter",

	// fault: injection (faults) and containment (guard) — one domain
	// prefix shared by both packages.
	"fault.injected":         "counter",
	"fault.budget_trips":     "counter",
	"fault.cancellations":    "counter",
	"fault.recovered_panics": "counter",

	// adversary: controlled-schedule replay (witness search, gap search,
	// post-repair adversarial verification). witness_ns times the search
	// for one static race class; verify_schedule_ns one verify schedule.
	"adversary.schedules_run":      "counter",
	"adversary.witnesses_found":    "counter",
	"adversary.yields":             "counter",
	"adversary.handoffs":           "counter",
	"adversary.gap_searches":       "counter",
	"adversary.witness_ns":         "histogram",
	"adversary.verify_schedule_ns": "histogram",

	// vet: static analysis diagnostics (hjvet / hjrepair -vet).
	"vet.runs":                     "counter",
	"vet.candidates":               "counter",
	"vet.mhp_pairs":                "counter",
	"vet.diagnostics":              "counter",
	"vet.diag.static_race":         "counter",
	"vet.diag.redundant_finish":    "counter",
	"vet.diag.unscoped_async_loop": "counter",
	"vet.diag.write_after_async":   "counter",
	"vet.diag.redundant_isolated":  "counter",
	"vet.diag.reducible_race":      "counter",
	"vet.diag.dead_stmt":           "counter",
}
