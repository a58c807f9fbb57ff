package resilience

import "fmt"

// Breaker trips after a run of consecutive failures, converting a
// systemic fault (a bug that panics on every point) into one loud
// abort instead of a full sweep of quarantined points.
// Isolated failures reset the streak. Not safe for concurrent use:
// the breaker guards an orchestrator's serial point loop, not the
// worker fan-out below it.
type Breaker struct {
	threshold int
	streak    int
	total     int
	tripped   bool
}

// NewBreaker returns a breaker that trips after threshold consecutive
// failures; threshold <= 0 never trips.
func NewBreaker(threshold int) *Breaker {
	return &Breaker{threshold: threshold}
}

// Record feeds one outcome; a success resets the failure streak.
func (b *Breaker) Record(failed bool) {
	if !failed {
		b.streak = 0
		return
	}
	b.streak++
	b.total++
	if b.threshold > 0 && b.streak >= b.threshold {
		b.tripped = true
	}
}

// Err returns a Permanent error once the breaker has tripped, nil
// before that.
func (b *Breaker) Err() error {
	if b == nil || !b.tripped {
		return nil
	}
	return Permanent(fmt.Errorf("resilience: breaker open after %d consecutive failures (%d total)", b.streak, b.total))
}
