package main

// The correctness oracle: the identical records go through an in-process
// reference online.Monitor (same model, detector and warm-up as the sink),
// and the SUT's retained epoch view and counters must agree with it
// exactly.

import (
	"fmt"
	"reflect"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
)

// sinkHistory is the sink's default rolling window (serve -history 0).
const sinkHistory = 64

// newReferenceMonitor builds a monitor the way sink.New does. Its backlog is
// unbounded: a reference never drops, so a SUT that does cannot match it.
func newReferenceMonitor(fx *fixtures) (*online.Monitor, error) {
	mon, err := online.NewMonitor(online.Config{
		Model:      fx.model,
		Detector:   fx.det,
		History:    sinkHistory,
		MaxPending: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	for _, rec := range fx.warm {
		if err := mon.Warm(rec); err != nil {
			return nil, err
		}
	}
	return mon, nil
}

// reference is the expected outcome of a run.
type reference struct {
	stats  online.Stats
	epochs []online.EpochState  // retained window, canonical order
	causes []online.EpochCauses // the same window as summed distributions
	// flagged maps a sink and an epoch to the positions (in feed order) of
	// the batches that carried that epoch's flagged reports to that sink,
	// one entry per report.
	flagged map[sinkEpoch][]int
}

// sinkEpoch names one sink's share of one epoch: each sink diagnoses, and
// announces, the states of the nodes it owns.
type sinkEpoch struct{ sink, epoch int }

// drainEvery bounds the reference's flagged backlog between drains; drain
// grouping does not change any diagnosis.
const drainEvery = 32

// computeReference feeds the batches, in order, through a fresh reference
// monitor; owner says which sink a node's reports end up on. A record the
// reference rejects is a harness bug or a reordered feed, and is returned
// as an error.
func computeReference(fx *fixtures, batches [][]trace.Record, owner func(packet.NodeID) int) (*reference, error) {
	mon, err := newReferenceMonitor(fx)
	if err != nil {
		return nil, err
	}
	ref := &reference{flagged: make(map[sinkEpoch][]int)}
	for i, b := range batches {
		for _, rec := range b {
			obs, err := mon.Ingest(rec)
			if err != nil {
				return nil, fmt.Errorf("reference rejected node %d epoch %d: %w", rec.Node, rec.Epoch, err)
			}
			if obs.Flagged {
				key := sinkEpoch{owner(rec.Node), rec.Epoch}
				ref.flagged[key] = append(ref.flagged[key], i)
			}
		}
		if i%drainEvery == drainEvery-1 || i == len(batches)-1 {
			if _, err := mon.Drain(); err != nil {
				return nil, err
			}
		}
	}
	ref.stats = mon.Stats()
	ref.epochs = retained(mon.EpochStates(), ref.stats.LastEpoch, func(e online.EpochState) int { return e.Epoch })
	for _, es := range ref.epochs {
		ec, _ := mon.EpochCauses(es.Epoch)
		ref.causes = append(ref.causes, ec)
	}
	return ref, nil
}

// retained keeps the epochs inside the rolling window that ends at
// lastEpoch. The monitor prunes only when a drain has work, so either side
// may still hold a few older epochs; the window itself is what both must
// agree on.
func retained[T any](eps []T, lastEpoch int, epoch func(T) int) []T {
	var out []T
	for _, e := range eps {
		if epoch(e) > lastEpoch-sinkHistory {
			out = append(out, e)
		}
	}
	return out
}

// diffEpochs explains the first difference between two epoch lists, or
// returns "" when they are bit-identical.
func diffEpochs[T any](got, want []T, epoch func(T) int) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("retained epochs: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("epoch %d (position %d) differs:\n got  %+v\n want %+v", epoch(want[i]), i, got[i], want[i])
		}
	}
	return "epoch lists differ"
}

// checkCounters reconciles the SUT's summed /metrics with the reference:
// every ACKed report reached a monitor, none was rejected, shed or dropped,
// and the same states were flagged and diagnosed.
func checkCounters(m map[string]float64, ref *reference) error {
	want := map[string]float64{
		"monitor_reports":   float64(ref.stats.Reports),
		"monitor_flagged":   float64(ref.stats.Flagged),
		"monitor_diagnosed": float64(ref.stats.Diagnosed),
		"ingest_errors":     0,
		"monitor_stale":     0,
		"monitor_dropped":   0,
		"reports_rejected":  0,
	}
	for k, v := range want {
		if m[k] != v {
			return fmt.Errorf("counter %s = %v, reference says %v", k, m[k], v)
		}
	}
	return nil
}
