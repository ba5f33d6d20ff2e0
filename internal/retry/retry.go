// Package retry implements decorrelated-jitter backoff (Brooker's
// "Exponential Backoff And Jitter" variant: each delay is drawn uniformly
// from [Min, 3·previous], capped at Max) with the randomness injected as an
// internal/rng stream. Like every stochastic component in this repo, a
// backoff sequence is a pure function of its key tuple: two Backoffs built
// from the same (seed, tag, ...) parts emit bit-identical delay sequences,
// so tests of retrying code paths are reproducible and the repo's
// determinism contract (DESIGN.md) extends to its failure handling.
//
// The Do helper runs an attempt loop around a Backoff with the sleeper
// injected as well; production callers pass nil for real time.Sleep,
// deterministic tests pass a recording sleeper and an already-canceled or
// deadline-bound context.
package retry

import (
	"context"
	"errors"
	"time"

	"github.com/wsn-tools/vn2/internal/rng"
)

// The bounds of every delay a Backoff draws.
const (
	Min = 100 * time.Millisecond
	Max = 10 * time.Second
)

// Backoff emits a decorrelated-jitter delay sequence. Not safe for
// concurrent use; give each retrying goroutine its own (differently keyed)
// Backoff.
type Backoff struct {
	src  rng.Stream
	prev time.Duration
}

// New returns a Backoff whose jitter stream is keyed by parts (see rng.New).
func New(parts ...uint64) *Backoff {
	return &Backoff{src: rng.New(parts...)}
}

// Next returns the delay to wait before the next attempt and advances the
// sequence. The first delay is uniform in [Min, 3·Min); subsequent delays
// are uniform in [Min, 3·previous), capped at Max — the decorrelated-jitter
// recurrence.
func (b *Backoff) Next() time.Duration {
	hi := 3 * max(b.prev, Min)
	if hi > Max {
		hi = Max
	}
	d := Min + time.Duration(b.src.Float64()*float64(hi-Min))
	b.prev = d
	return d
}

// ErrAttemptsExhausted wraps the last attempt error when Do gives up.
var ErrAttemptsExhausted = errors.New("retry: attempts exhausted")

// Do calls fn up to attempts times, sleeping b.Next() between failures via
// sleep (nil means time.Sleep). It returns nil on the first success, the
// context error if ctx is done before a retry, and otherwise the last
// attempt's error wrapped with ErrAttemptsExhausted. Consecutive Do calls
// on one Backoff share one escalating sequence.
func Do(ctx context.Context, b *Backoff, attempts int, sleep func(time.Duration), fn func() error) error {
	if attempts <= 0 {
		attempts = 1
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	var last error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if last = fn(); last == nil {
			return nil
		}
		if i < attempts-1 {
			sleep(b.Next())
		}
	}
	return errors.Join(ErrAttemptsExhausted, last)
}
