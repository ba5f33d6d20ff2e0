// Package trace implements VN2's data layer: per-node metric reports
// collected at the sink, the first-difference state vectors
// Sᵛᵢ = Pᵛᵢ − Pᵛᵢ₋₁ the model consumes, the variance-based exception
// detector of Section IV-B, and PRR accounting.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

// Errors returned by the dataset API.
var (
	// ErrVectorLength reports a record whose vector is not M=43 long.
	ErrVectorLength = errors.New("trace: vector length must equal metric count")
	// ErrEmpty reports an operation that needs data on an empty dataset.
	ErrEmpty = errors.New("trace: empty dataset")
)

// Record is one report received at the sink: node v's metric vector Pᵛᵢ at
// a reporting epoch.
type Record struct {
	Node   packet.NodeID `json:"node"`
	Epoch  int           `json:"epoch"`
	Vector []float64     `json:"vector"`
}

// StateVector is the variation between two successive received reports of
// one node: S = Pᵢ − Pᵢ₋₁.
type StateVector struct {
	Node  packet.NodeID `json:"node"`
	Epoch int           `json:"epoch"` // epoch of the later report Pᵢ
	Gap   int           `json:"gap"`   // epochs between the two reports (1 = consecutive)
	Delta []float64     `json:"delta"`
}

// Dataset accumulates records and derives state vectors.
type Dataset struct {
	byNode map[packet.NodeID][]Record
	arena  []float64 // the unused rest of the vector arena Add carves from
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{byNode: make(map[packet.NodeID][]Record)}
}

// Add appends a record. Records must arrive in non-decreasing epoch order
// per node (the sink naturally produces them that way). The vector is
// copied, into arenas of 1024: one allocation per thousand records.
func (d *Dataset) Add(rec Record) error {
	if len(rec.Vector) != metricspec.MetricCount {
		return fmt.Errorf("%w: got %d", ErrVectorLength, len(rec.Vector))
	}
	copy(d.slot(), rec.Vector)
	return d.commit(rec.Node, rec.Epoch)
}

// AddReport converts a packet.Report to a record and adds it, assembling
// the vector where it will live.
func (d *Dataset) AddReport(epoch int, r packet.Report) error {
	if err := r.VectorInto(d.slot()); err != nil {
		return fmt.Errorf("assemble vector: %w", err)
	}
	return d.commit(r.C1.Node, epoch)
}

// slot returns the arena's next vector for the caller to fill. It belongs
// to no record until commit consumes it, so a caller that fails leaves the
// dataset as it was.
func (d *Dataset) slot() []float64 {
	if len(d.arena) == 0 {
		d.arena = make([]float64, 1024*metricspec.MetricCount)
	}
	return d.arena[:metricspec.MetricCount:metricspec.MetricCount]
}

// commit appends the filled slot as node's record for epoch, or refuses it
// (the slot stays unconsumed) when the epoch is not after the node's last.
func (d *Dataset) commit(node packet.NodeID, epoch int) error {
	recs := d.byNode[node]
	if len(recs) > 0 && recs[len(recs)-1].Epoch >= epoch {
		return fmt.Errorf("trace: node %d epoch %d not after previous epoch %d",
			node, epoch, recs[len(recs)-1].Epoch)
	}
	d.byNode[node] = append(recs, Record{Node: node, Epoch: epoch, Vector: d.slot()})
	d.arena = d.arena[metricspec.MetricCount:]
	return nil
}

// Len returns the total record count.
func (d *Dataset) Len() int {
	n := 0
	for _, recs := range d.byNode {
		n += len(recs)
	}
	return n
}

// Nodes returns the node IDs present, ascending.
func (d *Dataset) Nodes() []packet.NodeID {
	out := make([]packet.NodeID, 0, len(d.byNode))
	for id := range d.byNode {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Records returns a node's records in epoch order (a copy of the slice; the
// vectors are shared and must not be mutated).
func (d *Dataset) Records(node packet.NodeID) []Record {
	recs := d.byNode[node]
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}

// LastRecords returns each node's latest record, by ascending node (the
// vectors are shared and must not be mutated).
func (d *Dataset) LastRecords() []Record {
	out := make([]Record, 0, len(d.byNode))
	for _, id := range d.Nodes() {
		recs := d.byNode[id]
		out = append(out, recs[len(recs)-1])
	}
	return out
}

// States derives all state vectors: for every node, the difference between
// each pair of successive received reports. Results are ordered by (epoch,
// node) so downstream processing is deterministic. The deltas are carved
// from one allocation, in (node, epoch) order.
func (d *Dataset) States() []StateVector {
	nodes := d.Nodes()
	n := d.Len() - len(nodes)
	out := make([]StateVector, 0, n)
	arena := make([]float64, n*metricspec.MetricCount)
	for _, id := range nodes {
		recs := d.byNode[id]
		for i := 1; i < len(recs); i++ {
			delta := arena[:metricspec.MetricCount:metricspec.MetricCount]
			arena = arena[metricspec.MetricCount:]
			for k := range delta {
				delta[k] = recs[i].Vector[k] - recs[i-1].Vector[k]
			}
			out = append(out, StateVector{
				Node:  id,
				Epoch: recs[i].Epoch,
				Gap:   recs[i].Epoch - recs[i-1].Epoch,
				Delta: delta,
			})
		}
	}
	slices.SortFunc(out, func(a, b StateVector) int {
		if c := cmp.Compare(a.Epoch, b.Epoch); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	return out
}

// EpochRange returns the smallest and largest epoch in the dataset.
func (d *Dataset) EpochRange() (min, max int, err error) {
	first := true
	for _, recs := range d.byNode {
		for _, r := range recs {
			if first {
				min, max = r.Epoch, r.Epoch
				first = false
				continue
			}
			if r.Epoch < min {
				min = r.Epoch
			}
			if r.Epoch > max {
				max = r.Epoch
			}
		}
	}
	if first {
		return 0, 0, ErrEmpty
	}
	return min, max, nil
}

// PRRPoint is one epoch of system packet-reception ratio.
type PRRPoint struct {
	Epoch int     `json:"epoch"`
	PRR   float64 `json:"prr"`
}

// PRRSeries computes per-epoch PRR as received reports over the expected
// population (totalNodes reports per epoch).
func (d *Dataset) PRRSeries(totalNodes int) ([]PRRPoint, error) {
	if totalNodes <= 0 {
		return nil, fmt.Errorf("trace: total nodes %d invalid", totalNodes)
	}
	min, max, err := d.EpochRange()
	if err != nil {
		return nil, err
	}
	counts := make(map[int]int)
	for _, recs := range d.byNode {
		for _, r := range recs {
			counts[r.Epoch]++
		}
	}
	out := make([]PRRPoint, 0, max-min+1)
	for e := min; e <= max; e++ {
		out = append(out, PRRPoint{
			Epoch: e,
			PRR:   math.Min(1, float64(counts[e])/float64(totalNodes)),
		})
	}
	return out, nil
}
