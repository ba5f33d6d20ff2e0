package wsn

import (
	"math/rand"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/radio"
)

// refSeen is the seen-cache as it stood before the open-addressed table: a
// map beside a ring of its keys in insertion order, kept verbatim as the
// reference model.
type refSeen struct {
	seen      map[uint64]uint8
	seenOrder []uint64
	seenHead  int
}

func newRefSeen() *refSeen { return &refSeen{seen: make(map[uint64]uint8, seenCacheSize)} }

func (nd *refSeen) remember(k uint64, flag uint8) {
	if old := nd.seen[k]; old != 0 {
		if old&flag == 0 {
			nd.seen[k] = old | flag
		}
		return
	}
	nd.seen[k] = flag
	if len(nd.seenOrder) < seenCacheSize {
		nd.seenOrder = append(nd.seenOrder, k)
		return
	}
	evict := nd.seenOrder[nd.seenHead]
	nd.seenOrder[nd.seenHead] = k
	nd.seenHead = (nd.seenHead + 1) % seenCacheSize
	delete(nd.seen, evict)
}

// TestSeenCacheMatchesReferenceModel drives the table and the reference with
// one seeded op script — remember rx / tx, probe, far more than 4096 distinct
// keys so eviction wraps the ring several times, reboots — and demands equal
// answers after every op, plus a full sweep of the key universe at intervals.
// Keys come in the simulator's shape (incarnation<<48 | origin<<32 | seq,
// dense in seq) and in a shape built to collide: every key's home is one of
// 64 slots straddling the table's end, so probe chains are hundreds long,
// merge, and wrap around — the cases backward-shift deletion can get wrong.
func TestSeenCacheMatchesReferenceModel(t *testing.T) {
	inv := uint64(seenFib) // Newton: seenFib's inverse mod 2^64, so seenHome(x*inv) is x's top bits
	for i := 0; i < 6; i++ {
		inv *= 2 - seenFib*inv
	}
	for _, shape := range []string{"packet", "colliding"} {
		rng := rand.New(rand.NewSource(22))
		var universe []uint64
		for i := 0; i < 3*seenCacheSize; i++ {
			if shape == "packet" {
				universe = append(universe, uint64(i%3)<<48|uint64(1+i%40)<<32|uint64(i/40))
			} else {
				home := uint64(seenSlots-32+i%64) % seenSlots
				universe = append(universe, (home<<(64-seenBits)|uint64(i))*inv)
			}
		}
		universe = append(universe, 0) // the zero key is a key like any other
		c, ref := new(seenCache), newRefSeen()
		sweep := func(op int) {
			for _, k := range universe {
				if got, want := c.get(k), ref.seen[k]; got != want {
					t.Fatalf("%s op %d: get(%#x) = %d, reference %d", shape, op, k, got, want)
				}
			}
			if cached := min(c.n, seenCacheSize); cached != len(ref.seen) {
				t.Fatalf("%s op %d: %d keys cached, reference %d", shape, op, cached, len(ref.seen))
			}
		}
		// A sliding window over the universe makes recent keys recur (flag
		// merges, probes that hit) while old ones age out.
		for op := 0; op < 12*seenCacheSize; op++ {
			lo := op / 4 % len(universe)
			k := universe[(lo+rng.Intn(seenCacheSize+500))%len(universe)]
			if op == 12000 || op == 30000 { // a reboot: zeroed, not re-made
				*c, ref = seenCache{}, newRefSeen()
			}
			switch r := rng.Intn(100); {
			case r < 45:
				c.remember(k, seenRx)
				ref.remember(k, seenRx)
			case r < 90:
				c.remember(k, seenTx)
				ref.remember(k, seenTx)
			}
			if got, want := c.get(k), ref.seen[k]; got != want {
				t.Fatalf("%s op %d: get(%#x) = %d, reference %d", shape, op, k, got, want)
			}
			if op%4099 == 0 {
				sweep(op)
			}
		}
		sweep(-1)
		if c.n < seenCacheSize+2000 {
			t.Fatalf("%s: script ended after %d insertions, want thousands of evictions since the last reboot", shape, c.n)
		}
	}
}

// TestReportsAscendingByNode is what replaced collectReports' sort: across
// a run with failures, reboots and a forced loop every epoch's reports are
// strictly ascending in node ID.
func TestReportsAscendingByNode(t *testing.T) {
	topo, err := RandomTopology(60, 550, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Seed: 5, Topology: topo, PacketsPerEpoch: 1, RandomRebootProb: 0.005,
		Radio: radio.Config{TxPower: -5}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for epoch := 1; epoch <= 60; epoch++ {
		switch {
		case epoch%7 == 0:
			if err := n.FailNode(packet.NodeID(1 + epoch%60)); err != nil {
				t.Fatal(err)
			}
		case epoch%11 == 0:
			if err := n.RebootNode(packet.NodeID(1 + (epoch-4)%60)); err != nil {
				t.Fatal(err)
			}
		case epoch == 20:
			if err := n.InjectLoop(3, 9, 14); err != nil {
				t.Fatal(err)
			}
		}
		er, err := n.Step()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(er.Reports); i++ {
			if er.Reports[i-1].C1.Node >= er.Reports[i].C1.Node {
				t.Fatalf("epoch %d: report %d is node %d after node %d", epoch, i, er.Reports[i].C1.Node, er.Reports[i-1].C1.Node)
			}
		}
		if len(er.Reports) != cap(er.Reports) {
			t.Fatalf("epoch %d: %d reports in a slice sized for %d", epoch, len(er.Reports), cap(er.Reports))
		}
		total += len(er.Reports)
	}
	if total < 1000 || len(n.EventsOfType(EventReboot)) < 5 || len(n.EventsOfType(EventFail)) < 5 {
		t.Fatalf("run too quiet to mean anything: %d reports, events %v", total, n.Events())
	}
}
