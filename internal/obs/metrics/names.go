package metrics

// Canonical metric family names. The STM and the collections register
// instruments under these names against the Default registry; the
// Monitor and the tracecheck -prom validator look families up by the
// same constants, so the wiring cannot drift apart silently.
const (
	// STM lifecycle counters (internal/stm).
	StmCommits           = "tcc_stm_commits_total"
	StmAborts            = "tcc_stm_aborts_total" // label: cause
	StmRetries           = "tcc_stm_retries_total"
	StmViolations        = "tcc_stm_violations_total"
	StmUserAborts        = "tcc_stm_user_aborts_total"
	StmNestedRetries     = "tcc_stm_nested_retries_total"
	StmOpenCommits       = "tcc_stm_open_commits_total"
	StmSnapshotCommits   = "tcc_stm_snapshot_commits_total"
	StmSnapshotFallbacks = "tcc_stm_snapshot_fallbacks_total"

	// Commit-guard serialization cost (internal/stm).
	StmGuardWaits  = "tcc_stm_guard_waits_total"
	StmGuardWaitNs = "tcc_stm_guard_wait_ns_total"

	// StmClock is the TL2 global version clock, as a gauge: its slope
	// is the system-wide commit rate.
	StmClock = "tcc_stm_clock"

	// StmTxLatency is the windowed top-level commit latency summary,
	// in cycles of the committing thread's clock.
	StmTxLatency = "tcc_stm_tx_latency_cycles"

	// CollectionViolations counts semantic violations landed by each
	// collection stripe's sweeps. Labels: collection, stripe.
	CollectionViolations = "tcc_collection_violations_total"

	// Monitor outputs.
	MonitorAbortRate = "tcc_monitor_abort_rate"
	MonitorAlert     = "tcc_monitor_alert" // label: alert; 1 raised / 0 clear
)
