// Package resilience is the fault-tolerance layer of the sweep
// runtime: typed transient-vs-permanent error classification, a
// bounded retry policy with decorrelated-jitter backoff, and a breaker
// that halts runaway failure streaks.
//
// The package is deterministic-safe by construction, which is what
// lets //nrlint:deterministic packages (internal/sweep above all)
// use it without weakening the bit-identical-results contract:
//
//   - backoff jitter is drawn from an injected internal/rng stream,
//     never math/rand, so the delay sequence is a pure function of the
//     caller's seed;
//   - waiting flows through an injected obs.Sleeper via obs.Sleep —
//     never time.Sleep — and a nil Sleeper computes delays without
//     sleeping at all, so retried runs produce the same results as
//     patient ones.
//
// Classification contract: an error wrapped by Transient is worth
// retrying (checkpoint I/O hiccups); one wrapped by Permanent is not,
// but the failing unit of work can be quarantined and the run
// continued (a trial that panicked). An error that is neither is a
// configuration or spec error — callers abort on it immediately, so
// bad inputs keep surfacing up front instead of being retried into
// the ground.
//
//nrlint:deterministic
package resilience

import "errors"

// classified wraps an error with its retry classification. The
// message is unchanged; classification travels via errors.As through
// any further %w wrapping.
type classified struct {
	err       error
	transient bool
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Transient marks err worth retrying. Nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: true}
}

// Permanent marks err not worth retrying: the operation will keep
// failing, but the failing unit can be quarantined. Nil stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, transient: false}
}

// IsTransient reports whether err carries a Transient classification
// (the outermost classification wins when reclassified).
func IsTransient(err error) bool {
	var c *classified
	return errors.As(err, &c) && c.transient
}

// IsPermanent reports whether err carries a Permanent classification.
func IsPermanent(err error) bool {
	var c *classified
	return errors.As(err, &c) && !c.transient
}

// Classified reports whether err carries either classification.
// Unclassified errors are config/spec errors by the package contract:
// callers neither retry nor quarantine them.
func Classified(err error) bool {
	var c *classified
	return errors.As(err, &c)
}
