package retry

import "time"

// Breaker is the stream reporter's three-state circuit breaker (one per
// sink connection):
//
//	closed ──Threshold consecutive failures──▶ open
//	open ──Cooldown elapsed──▶ half-open (one probe allowed)
//	half-open ──probe succeeds──▶ closed
//	half-open ──probe fails──▶ open (cooldown restarts)
//
// It counts whole-delivery outcomes (a Do ladder that ends in an error),
// not individual attempts: the retry layer already absorbs transient blips,
// so a trip means the peer stayed down through Threshold full retry
// ladders. The clock is injected by the caller on every transition check, so
// tests and the chaos harness step it deterministically. Not goroutine-safe;
// the owner guards it with its own mutex.
type Breaker struct {
	Threshold int
	Cooldown  time.Duration

	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	trips    uint64
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Allow reports whether a delivery may proceed at time now. While open it
// refuses until the cooldown elapses, then moves to half-open and admits
// the single probe delivery.
func (b *Breaker) Allow(now time.Time) bool {
	if b.state == breakerOpen {
		if now.Sub(b.openedAt) < b.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
	}
	return true
}

// Success closes the breaker and clears the failure streak.
func (b *Breaker) Success() {
	b.state = breakerClosed
	b.fails = 0
}

// Fail records a failed delivery at time now. A half-open probe failure
// reopens immediately; a closed-state failure opens once the streak
// reaches the threshold.
func (b *Breaker) Fail(now time.Time) {
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.Threshold {
		if b.state != breakerOpen {
			b.trips++
		}
		b.state = breakerOpen
		b.openedAt = now
		b.fails = 0
	}
}

// Trips counts closed/half-open → open transitions.
func (b *Breaker) Trips() uint64 { return b.trips }

// State names the current state: "closed", "open" or "half-open".
func (b *Breaker) State() string {
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
