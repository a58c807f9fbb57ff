package resilience

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/gossipkit/noisyrumor/internal/rng"
)

func TestClassification(t *testing.T) {
	base := errors.New("disk on fire")
	if !IsTransient(Transient(base)) || IsPermanent(Transient(base)) {
		t.Error("Transient classification lost")
	}
	if !IsPermanent(Permanent(base)) || IsTransient(Permanent(base)) {
		t.Error("Permanent classification lost")
	}
	if IsTransient(base) || IsPermanent(base) || Classified(base) {
		t.Error("bare error must stay unclassified")
	}
	if Transient(nil) != nil || Permanent(nil) != nil {
		t.Error("nil must stay nil")
	}
	// Classification survives %w wrapping and keeps the message.
	wrapped := fmt.Errorf("outer: %w", Transient(base))
	if !IsTransient(wrapped) {
		t.Error("classification must travel through %w")
	}
	if !errors.Is(wrapped, base) {
		t.Error("Unwrap chain must reach the base error")
	}
	if got := Transient(base).Error(); got != base.Error() {
		t.Errorf("message changed by classification: %q", got)
	}
	// The outermost classification wins on reclassification.
	if !IsPermanent(Permanent(Transient(base))) {
		t.Error("outer Permanent must win")
	}
}

func TestDoRetriesTransient(t *testing.T) {
	p := Policy{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}
	calls := 0
	err := p.Do(rng.New(1), func(a int) error {
		if a != calls {
			t.Errorf("attempt %d reported as %d", calls, a)
		}
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want success after 3", err, calls)
	}
}

func TestDoStopsOnPermanentAndUnclassified(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"permanent", Permanent(errors.New("gone"))},
		{"unclassified", errors.New("bad spec")},
	} {
		calls := 0
		err := Policy{Attempts: 5}.Do(rng.New(1), func(int) error { calls++; return tc.err })
		if calls != 1 {
			t.Errorf("%s: %d calls, want 1 (no retry)", tc.name, calls)
		}
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: error %v must surface unchanged", tc.name, err)
		}
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	calls := 0
	err := Policy{Attempts: 3}.Do(rng.New(1), func(int) error {
		calls++
		return Transient(errors.New("still flaky"))
	})
	if calls != 3 {
		t.Fatalf("%d calls, want 3", calls)
	}
	if err == nil || !IsTransient(err) {
		t.Fatalf("exhaustion error %v must keep its classification", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("exhaustion error %q should report the attempt count", err)
	}
}

func TestZeroPolicyRunsOnce(t *testing.T) {
	calls := 0
	if err := (Policy{}).Do(nil, func(int) error { calls++; return Transient(errors.New("x")) }); err == nil {
		t.Error("want error through")
	}
	if calls != 1 {
		t.Errorf("%d calls, want 1", calls)
	}
}

// recordingSleeper captures the delays a policy actually sleeps.
type recordingSleeper struct{ delays []time.Duration }

func (r *recordingSleeper) Sleep(d time.Duration) { r.delays = append(r.delays, d) }

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		s := &recordingSleeper{}
		p := Policy{Attempts: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Sleeper: s}
		var observed []time.Duration
		p.OnBackoff = func(attempt int, d time.Duration) { observed = append(observed, d) }
		_ = p.Do(rng.New(seed), func(int) error { return Transient(errors.New("flaky")) })
		if len(observed) != len(s.delays) {
			t.Fatalf("OnBackoff saw %d delays, sleeper %d", len(observed), len(s.delays))
		}
		for i := range observed {
			if observed[i] != s.delays[i] {
				t.Fatalf("OnBackoff delay %v != slept %v", observed[i], s.delays[i])
			}
		}
		return s.delays
	}
	a, b := run(7), run(7)
	if len(a) != 5 {
		t.Fatalf("6 attempts should back off 5 times, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give the same delay sequence: %v vs %v", a, b)
		}
		if a[i] < 2*time.Millisecond || a[i] > 20*time.Millisecond {
			t.Errorf("delay %v outside [base, cap]", a[i])
		}
	}
	if c := run(8); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
			}
		}
		if same {
			t.Error("different seeds should jitter differently")
		}
	}
}

func TestNilSleeperComputesButNeverSleeps(t *testing.T) {
	p := Policy{Attempts: 3, BaseDelay: time.Hour} // would hang with a real sleeper
	start := time.Now()
	_ = p.Do(rng.New(1), func(int) error { return Transient(errors.New("flaky")) })
	if time.Since(start) > time.Second {
		t.Fatal("nil sleeper must not sleep")
	}
}

func TestBreaker(t *testing.T) {
	b := NewBreaker(3)
	b.Record(true)
	b.Record(true)
	b.Record(false) // success resets the streak
	b.Record(true)
	b.Record(true)
	if b.Err() != nil {
		t.Fatal("streak of 2 must not trip a threshold-3 breaker")
	}
	b.Record(true)
	if err := b.Err(); err == nil || !IsPermanent(err) {
		t.Fatalf("breaker error %v, want a Permanent trip", err)
	}
	if !b.Tripped() {
		t.Error("Tripped() should report open")
	}
	never := NewBreaker(0)
	for i := 0; i < 100; i++ {
		never.Record(true)
	}
	if never.Err() != nil {
		t.Error("threshold 0 must never trip")
	}
}
