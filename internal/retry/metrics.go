package retry

import "github.com/gaugenn/gaugenn/internal/obs"

// Every Policy in the process reports through these shared series: retry
// is the one funnel all re-issued work passes through, so instrumenting
// Do here gives the whole pipeline's retry picture without per-caller
// wiring. Handles are resolved once at init; the Do hot path only touches
// atomics.
var (
	metAttempts = obs.Default().Counter("gaugenn_retry_attempts_total",
		"Operation attempts started under a retry.Policy, first tries included.")
	metRetries = obs.Default().Counter("gaugenn_retry_retries_total",
		"Re-attempts after a retryable failure (attempts beyond the first).")
	metExhaustions = obs.Default().Counter("gaugenn_retry_exhaustions_total",
		"Operations that failed after exhausting their attempt cap or time budget.")
	metBackoffSleeps = obs.Default().Counter("gaugenn_retry_backoff_sleeps_total",
		"Backoff waits entered between attempts.")
	metBackoffSeconds = obs.Default().FloatCounter("gaugenn_retry_backoff_seconds_total",
		"Total seconds requested across backoff waits (hint-directed waits included).")
)
