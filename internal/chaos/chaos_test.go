package chaos

import (
	"reflect"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

func rec(node packet.NodeID, epoch int) trace.Record {
	return trace.Record{Node: node, Epoch: epoch, Vector: []float64{float64(node), float64(epoch)}}
}

// epochs feeds nodes×epochs records through the transport one epoch-batch at
// a time and returns every delivery, including the final flush.
func drive(t *testing.T, cfg Config, nodes, epochs int) ([]Delivery, Stats) {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []Delivery
	for e := 1; e <= epochs; e++ {
		var batch []trace.Record
		for n := 1; n <= nodes; n++ {
			batch = append(batch, rec(packet.NodeID(n), e))
		}
		out = append(out, tr.Step(batch)...)
	}
	out = append(out, tr.Flush()...)
	return out, tr.Stats()
}

func TestValidatesConfig(t *testing.T) {
	for _, cfg := range []Config{{Drop: -0.1}, {Duplicate: 1.5}, {Delay: 2}, {Truncate: -1}} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an out-of-range probability", cfg)
		}
	}
}

// TestDeterministic: two transports with the same config produce
// bit-identical delivery schedules and stats.
func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 0.1, Duplicate: 0.2, Delay: 0.3, Truncate: 0.15, Shuffle: true}
	a, sa := drive(t, cfg, 8, 20)
	b, sb := drive(t, cfg, 8, 20)
	if !reflect.DeepEqual(a, b) || sa != sb {
		t.Fatal("same seed produced different delivery schedules")
	}
	c, _ := drive(t, Config{Seed: 8, Drop: 0.1, Duplicate: 0.2, Delay: 0.3, Truncate: 0.15, Shuffle: true}, 8, 20)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (draws not keyed by seed?)")
	}
}

// TestLosslessFaults: with Drop = 0, every offered record is delivered at
// least once (duplicates aside, nothing is lost) and per-node epoch order is
// preserved across delays, duplication, shuffling, and truncation retries.
func TestLosslessFaults(t *testing.T) {
	const nodes, epochs = 8, 30
	out, st := drive(t, Config{Seed: 42, Duplicate: 0.25, Delay: 0.4, Truncate: 0.2, Shuffle: true}, nodes, epochs)

	type key struct {
		node  packet.NodeID
		epoch int
	}
	seen := make(map[key]int)
	lastEpoch := make(map[packet.NodeID]int)
	var delivered uint64
	for _, d := range out {
		for _, r := range d.Records {
			delivered++
			seen[key{r.Node, r.Epoch}]++
			if r.Epoch < lastEpoch[r.Node] {
				t.Fatalf("node %d epoch %d delivered after epoch %d: per-node order broken",
					r.Node, r.Epoch, lastEpoch[r.Node])
			}
			lastEpoch[r.Node] = r.Epoch
		}
	}
	for n := 1; n <= nodes; n++ {
		for e := 1; e <= epochs; e++ {
			if seen[key{packet.NodeID(n), e}] == 0 {
				t.Fatalf("node %d epoch %d never delivered despite Drop=0", n, e)
			}
		}
	}
	if st.Dropped != 0 || st.Offered != nodes*epochs || st.Delivered != delivered {
		t.Fatalf("stats %+v inconsistent with %d delivered records", st, delivered)
	}
	if st.Duplicated == 0 || st.Delayed == 0 || st.Truncated == 0 {
		t.Fatalf("stats %+v: expected every enabled fault to fire at these rates", st)
	}
}

// TestDropAccounting: dropped records never appear and the counters add up.
func TestDropAccounting(t *testing.T) {
	out, st := drive(t, Config{Seed: 3, Drop: 0.3}, 6, 25)
	var delivered uint64
	for _, d := range out {
		delivered += uint64(len(d.Records))
	}
	if st.Dropped == 0 {
		t.Fatal("Drop=0.3 over 150 records dropped nothing")
	}
	if st.Offered != 150 || st.Delivered != delivered || st.Delivered+st.Dropped != st.Offered {
		t.Fatalf("accounting mismatch: %+v, delivered %d", st, delivered)
	}
}

// TestCleanWire: the zero fault mix passes batches through untouched, one
// delivery per step.
func TestCleanWire(t *testing.T) {
	tr, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := []trace.Record{rec(1, 5), rec(2, 5), rec(3, 5)}
	out := tr.Step(batch)
	if len(out) != 1 || out[0].Truncated || !reflect.DeepEqual(out[0].Records, batch) {
		t.Fatalf("clean wire mangled the batch: %+v", out)
	}
	if fl := tr.Flush(); len(fl) != 0 {
		t.Fatalf("clean wire held records back: %+v", fl)
	}
}

// TestFlushReleasesHeld: records still delayed at end of run come out of
// Flush in canonical (epoch, node) order.
func TestFlushReleasesHeld(t *testing.T) {
	tr, err := New(Config{Seed: 11, Delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out := tr.Step([]trace.Record{rec(2, 1), rec(1, 1), rec(1, 2)}); len(out) != 0 {
		t.Fatalf("Delay=1 delivered immediately: %+v", out)
	}
	out := tr.Flush()
	if len(out) != 1 {
		t.Fatalf("flush returned %d deliveries, want 1", len(out))
	}
	want := []trace.Record{rec(1, 1), rec(2, 1), rec(1, 2)}
	if !reflect.DeepEqual(out[0].Records, want) {
		t.Fatalf("flush order = %+v, want %+v", out[0].Records, want)
	}
}
