package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"repro/internal/backoff"
)

// Retry-state markers exposed as Job.RetryState. Empty means the job is
// not in any retry-related holding pattern.
const (
	// RetryBackoff: the last attempt failed and the job is parked until
	// NextRun under its exponential-backoff schedule.
	RetryBackoff = "backoff"
	// RetryParked: the spec's circuit breaker is open; the job waits for
	// the breaker cooldown before its next attempt.
	RetryParked = "parked"
	// RetryExhausted: the retry budget is spent; the job is dead-lettered
	// (StateDead) until an operator resurrects it.
	RetryExhausted = "exhausted"
)

// Retry policy defaults, applied when a spec carries a retry block with
// zero-valued fields. A spec with no retry block gets the legacy single
// attempt and never touches these.
const (
	defaultRetryAttempts   = 3
	defaultRetryBackoff    = 500 * time.Millisecond
	defaultRetryBackoffMax = 30 * time.Second
)

// retryPolicy is the resolved per-job retry contract.
type retryPolicy struct {
	maxAttempts int // total run attempts before dead-letter; 1 = legacy fail-fast
	// backoff spaces the attempts. Its jitter is a pure function of the
	// job's seed and the failure count, so a given job replays the
	// identical backoff schedule on every daemon — reproducibility is the
	// service's house rule — and the distributed field coordinator
	// retries shard reassignments on the same schedule.
	backoff backoff.Policy
}

// specFingerprint canonically hashes a spec (its JSON form — field order
// is fixed by the struct) to the key the circuit breaker aggregates
// failure streaks under: resubmitting the same crashing spec keeps
// feeding the same breaker no matter how many job IDs it burns.
func specFingerprint(s *Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec marshaling is exercised by every submit; failure here is a
		// programming error.
		panic("service: unmarshalable spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
