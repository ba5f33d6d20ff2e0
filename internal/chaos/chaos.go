// Package chaos implements a deterministic adversarial transport between a
// report source (the internal/wsn simulator, via tracegen) and the serve
// sink: it drops, duplicates, delays/reorders, and wire-truncates report
// batches — the failure modes the paper attributes to the measurement
// channel itself (reports arrive late, duplicated, reordered, or not at
// all), made reproducible.
//
// Determinism follows the repo's counter-based RNG contract (DESIGN.md): a
// record's fate is drawn from a stream keyed by (seed, node, epoch) — by
// WHAT is being decided, never by when — and step-level draws (shuffle,
// truncation) are keyed by the step index. The full delivery schedule is
// therefore a pure function of (Config, offered batches); two runs with the
// same seed are bit-identical, which is what lets the chaos harness assert
// exact recovery.
//
// One deliberate bias: delays preserve per-node epoch order. A held report
// is flushed ahead of any newer report of the same node, because the
// monitor (correctly) rejects reports older than the node's last as stale —
// an out-of-order delivery would silently become a loss and break the
// "lossless faults recover exactly" contract. Cross-node reordering, which
// is what drain batching actually sees, is fully exercised. Losses are what
// Drop is for, and those are asserted under tolerance instead.
package chaos

import (
	"fmt"
	"sort"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/rng"
	"github.com/wsn-tools/vn2/internal/trace"
)

// Stream tags for the transport's keyed draws.
const (
	tagFate    = 0x9c47_0001
	tagShuffle = 0x9c47_0002
	tagTrunc   = 0x9c47_0003
)

// maxDelay bounds how many steps a delayed report is held.
const maxDelay = 3

// Config sets the fault mix. All probabilities are per record (Truncate is
// per delivery) in [0, 1].
type Config struct {
	// Seed keys every draw.
	Seed int64
	// Drop loses a report forever.
	Drop float64
	// Duplicate delivers a report twice (adjacent retransmission).
	Duplicate float64
	// Delay holds a report for 1..maxDelay later steps before delivery,
	// reordering it relative to other nodes' reports.
	Delay float64
	// Truncate marks a delivery as wire-truncated: the receiver sees a
	// cut-off payload and it is the sender's job to retransmit (the chaos
	// client sends a cut body, collects the 400, and retries).
	Truncate float64
	// Shuffle reorders each delivery's records (cross-node; per-node epoch
	// order is repaired, see the package comment).
	Shuffle bool
}

// Stats counts what the transport did to the offered traffic.
type Stats struct {
	Offered    uint64 `json:"offered"`
	Delivered  uint64 `json:"delivered"` // records handed out, duplicates included
	Dropped    uint64 `json:"dropped"`
	Duplicated uint64 `json:"duplicated"`
	Delayed    uint64 `json:"delayed"`
	Truncated  uint64 `json:"truncated"` // deliveries marked wire-truncated
}

// Delivery is one wire transfer the sink-side client should attempt.
type Delivery struct {
	Records []trace.Record
	// Truncated marks the transfer as cut mid-payload: the receiver must
	// reject it and the sender retransmit the full batch.
	Truncated bool
}

type heldRec struct {
	rec trace.Record
	due int  // step at which the hold expires
	dup bool // fate drawn at offer time, applied at delivery
}

// Transport applies the fault mix to a sequence of report batches. Not safe
// for concurrent use; drive it from one goroutine (the chaos client).
type Transport struct {
	cfg   Config
	step  int
	held  map[packet.NodeID][]heldRec
	stats Stats
}

// New validates the configuration and returns a transport at step 0.
func New(cfg Config) (*Transport, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", cfg.Drop}, {"Duplicate", cfg.Duplicate}, {"Delay", cfg.Delay}, {"Truncate", cfg.Truncate}} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("chaos: %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	return &Transport{cfg: cfg, held: make(map[packet.NodeID][]heldRec)}, nil
}

// fate draws a record's fortune from its identity-keyed stream.
func (t *Transport) fate(rec trace.Record) (drop, dup bool, delaySteps int) {
	s := rng.New(uint64(t.cfg.Seed), tagFate, rng.I(rec.Epoch), uint64(rec.Node))
	drop = s.Float64() < t.cfg.Drop
	dup = s.Float64() < t.cfg.Duplicate
	if s.Float64() < t.cfg.Delay {
		delaySteps = 1 + int(s.Uint64()%maxDelay)
	}
	return
}

// Step offers one batch (typically one simulator epoch's reports) to the
// wire and returns the deliveries that come out the other side this step:
// surviving records of the batch, expired holds, and flushed holds of nodes
// that reported again. May return zero deliveries (everything dropped or
// held).
func (t *Transport) Step(batch []trace.Record) []Delivery {
	t.step++
	var out []trace.Record

	// Holds whose timer expired deliver first (they are the oldest),
	// ordered by (epoch, node) for determinism.
	out = append(out, t.takeExpired()...)

	for _, rec := range batch {
		t.stats.Offered++
		drop, dup, delay := t.fate(rec)
		if drop {
			t.stats.Dropped++
			continue
		}
		if delay > 0 {
			t.stats.Delayed++
			// A newer epoch must never expire before an older held one, or
			// the monitor would see it first and mark the older stale. Clamp
			// the due step to the node's latest hold.
			due := t.step + delay
			for _, h := range t.held[rec.Node] {
				if h.due > due {
					due = h.due
				}
			}
			t.held[rec.Node] = append(t.held[rec.Node], heldRec{rec: rec, due: due, dup: dup})
			continue
		}
		// Anything still held for this node goes out first, oldest epoch
		// first, so per-node order survives the wire.
		out = append(out, t.takeNode(rec.Node)...)
		out = append(out, rec)
		if dup {
			t.stats.Duplicated++
			out = append(out, rec)
		}
	}
	return t.wrap(out)
}

// Flush delivers everything still held (end of run), oldest first.
func (t *Transport) Flush() []Delivery {
	t.step++
	var all []heldRec
	for _, hs := range t.held {
		all = append(all, hs...)
	}
	t.held = make(map[packet.NodeID][]heldRec)
	return t.wrap(t.emit(all))
}

// Stats returns a copy of the fault accounting.
func (t *Transport) Stats() Stats { return t.stats }

// takeExpired removes and returns every held record whose due step has
// arrived.
func (t *Transport) takeExpired() []trace.Record {
	var due []heldRec
	for node, hs := range t.held {
		var keep []heldRec
		for _, h := range hs {
			if h.due <= t.step {
				due = append(due, h)
			} else {
				keep = append(keep, h)
			}
		}
		if len(keep) == 0 {
			delete(t.held, node)
		} else {
			t.held[node] = keep
		}
	}
	return t.emit(due)
}

// takeNode removes and returns a node's held records, oldest epoch first.
func (t *Transport) takeNode(node packet.NodeID) []trace.Record {
	hs := t.held[node]
	if len(hs) == 0 {
		return nil
	}
	delete(t.held, node)
	return t.emit(hs)
}

// emit sorts held records canonically (epoch, then node) and expands their
// duplicate fates.
func (t *Transport) emit(hs []heldRec) []trace.Record {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].rec.Epoch != hs[j].rec.Epoch {
			return hs[i].rec.Epoch < hs[j].rec.Epoch
		}
		return hs[i].rec.Node < hs[j].rec.Node
	})
	var out []trace.Record
	for _, h := range hs {
		out = append(out, h.rec)
		if h.dup {
			t.stats.Duplicated++
			out = append(out, h.rec)
		}
	}
	return out
}

// wrap shuffles (with per-node order repair), draws the truncation fate,
// and packages the step's records as a delivery.
func (t *Transport) wrap(recs []trace.Record) []Delivery {
	if len(recs) == 0 {
		return nil
	}
	if t.cfg.Shuffle {
		t.shuffle(recs)
	}
	d := Delivery{Records: recs}
	s := rng.New(uint64(t.cfg.Seed), tagTrunc, rng.I(t.step))
	if s.Float64() < t.cfg.Truncate {
		d.Truncated = true
		t.stats.Truncated++
	}
	t.stats.Delivered += uint64(len(recs))
	return []Delivery{d}
}

// shuffle is a keyed Fisher–Yates followed by per-node epoch-order repair:
// positions move freely across nodes, but where one node occupies several
// positions its records are re-laid in ascending epoch order.
func (t *Transport) shuffle(recs []trace.Record) {
	s := rng.New(uint64(t.cfg.Seed), tagShuffle, rng.I(t.step))
	for i := len(recs) - 1; i > 0; i-- {
		j := int(s.Uint64() % uint64(i+1))
		recs[i], recs[j] = recs[j], recs[i]
	}
	pos := make(map[packet.NodeID][]int)
	for i, r := range recs {
		pos[r.Node] = append(pos[r.Node], i)
	}
	for _, idxs := range pos {
		if len(idxs) < 2 {
			continue
		}
		rs := make([]trace.Record, len(idxs))
		for k, i := range idxs {
			rs[k] = recs[i]
		}
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].Epoch < rs[b].Epoch })
		for k, i := range idxs {
			recs[i] = rs[k]
		}
	}
}
