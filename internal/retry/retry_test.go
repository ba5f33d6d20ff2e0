package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestNextBounds checks every emitted delay stays within [min, max] and that
// the decorrelated recurrence never exceeds 3× the previous delay.
func TestNextBounds(t *testing.T) {
	min, max := 10*time.Millisecond, 500*time.Millisecond
	b := New(min, max, 1, 2, 3)
	prev := min
	for i := 0; i < 200; i++ {
		d := b.Next()
		if d < min || d > max {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, min, max)
		}
		if d > 3*prev {
			t.Fatalf("draw %d: %v exceeds 3×previous %v", i, d, prev)
		}
		prev = d
	}
	if b.Attempts() != 200 {
		t.Fatalf("attempts = %d, want 200", b.Attempts())
	}
}

// TestDeterministicSequences is the package's determinism contract: same key
// → bit-identical delay sequence; different key → a different one; Reset
// rewinds exactly.
func TestDeterministicSequences(t *testing.T) {
	mk := func(parts ...uint64) []time.Duration {
		b := New(time.Millisecond, time.Second, parts...)
		out := make([]time.Duration, 64)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b := mk(7, 9), mk(7, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same key diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(7, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different keys produced identical sequences")
	}

	r := New(time.Millisecond, time.Second, 7, 9)
	first := r.Next()
	r.Next()
	r.Reset()
	if got := r.Next(); got != first {
		t.Fatalf("Reset did not rewind: first=%v after reset=%v", first, got)
	}
	if r.Attempts() != 1 {
		t.Fatalf("attempts after reset+next = %d, want 1", r.Attempts())
	}
}

// TestZeroAndInvertedBounds covers the default substitution paths.
func TestZeroAndInvertedBounds(t *testing.T) {
	b := New(0, 0, 1)
	if d := b.Next(); d < DefaultMin || d > DefaultMax {
		t.Fatalf("default-bounded draw %v outside [%v, %v]", d, DefaultMin, DefaultMax)
	}
	b = New(time.Second, time.Millisecond, 1) // max < min
	if d := b.Next(); d != time.Second {
		t.Fatalf("inverted bounds draw %v, want exactly min", d)
	}
}

// TestDoRetriesThenSucceeds runs the attempt loop with a recording sleeper.
func TestDoRetriesThenSucceeds(t *testing.T) {
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d) }
	b := New(time.Millisecond, time.Second, 42)
	calls := 0
	err := Do(context.Background(), b, 5, sleep, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || len(slept) != 2 {
		t.Fatalf("calls=%d slept=%d, want 3 calls and 2 sleeps", calls, len(slept))
	}

	// Same key replays the same sleeps.
	var slept2 []time.Duration
	b2 := New(time.Millisecond, time.Second, 42)
	calls = 0
	_ = Do(context.Background(), b2, 5, func(d time.Duration) { slept2 = append(slept2, d) }, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	for i := range slept {
		if slept[i] != slept2[i] {
			t.Fatalf("sleep %d diverged: %v vs %v", i, slept[i], slept2[i])
		}
	}
}

// TestDoExhaustsAndWraps asserts the typed give-up error and that the last
// attempt error is preserved.
func TestDoExhaustsAndWraps(t *testing.T) {
	b := New(time.Millisecond, time.Second, 1)
	boom := errors.New("boom")
	calls := 0
	err := Do(context.Background(), b, 3, func(time.Duration) {}, func() error { calls++; return boom })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, ErrAttemptsExhausted) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrAttemptsExhausted wrapping boom", err)
	}
}

// TestDoHonorsContext: a canceled context stops the loop before another
// attempt runs.
func TestDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(time.Millisecond, time.Second, 1)
	calls := 0
	err := Do(ctx, b, 10, func(time.Duration) { cancel() }, func() error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (canceled during first sleep)", calls)
	}

	cancel2ctx, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := Do(cancel2ctx, b, 3, func(time.Duration) {}, func() error { t.Fatal("fn ran"); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}
}

// TestBreakerStateMachine walks the three states with an injected clock:
// threshold consecutive failures open it, the cooldown admits one probe, a
// failed probe reopens it at once, a successful one closes it.
func TestBreakerStateMachine(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := Breaker{Threshold: 2, Cooldown: time.Minute}
	b.Fail(t0)
	b.Success() // a success clears the streak
	b.Fail(t0)
	if !b.Allow(t0) || b.State() != "closed" || b.Trips() != 0 {
		t.Fatalf("one failure after a success: state %s trips %d", b.State(), b.Trips())
	}
	b.Fail(t0)
	if b.Allow(t0.Add(59*time.Second)) || b.State() != "open" || b.Trips() != 1 {
		t.Fatalf("after the threshold: state %s trips %d, want open/1", b.State(), b.Trips())
	}
	if !b.Allow(t0.Add(time.Minute)) || b.State() != "half-open" {
		t.Fatalf("after the cooldown: state %s, want a half-open probe", b.State())
	}
	t1 := t0.Add(time.Minute)
	b.Fail(t1) // the probe fails: open again, cooldown restarts from t1
	if b.Allow(t1.Add(59*time.Second)) || b.Trips() != 2 {
		t.Fatalf("failed probe: state %s trips %d, want open/2", b.State(), b.Trips())
	}
	if !b.Allow(t1.Add(time.Minute)) {
		t.Fatal("second cooldown did not admit a probe")
	}
	b.Success()
	if !b.Allow(t1.Add(time.Minute)) || b.State() != "closed" {
		t.Fatalf("successful probe: state %s, want closed", b.State())
	}
}
