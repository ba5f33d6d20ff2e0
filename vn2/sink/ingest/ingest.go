// Package ingest is the sink's decode layer: it turns a POST /report body
// or a binary frame into validated trace records, builds the
// fully-materialized frame the WAL stores, and defines the queue item
// that carries a committed batch (or a barrier) from the commit point to
// the single ingest loop. It deliberately knows nothing about HTTP status
// codes, the WAL, or the monitor — those live in sink/api, sink/store and
// the sink root respectively.
package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// Decode parses a POST /report body: a bare trace.Record, a bare array of
// records, or the {"reports": [...]} envelope. Every record it returns can
// be represented in a full frame record (the one form the WAL journals), so
// a record outside the wire's ranges is rejected here, by index, instead of
// being acknowledged and then failing to journal. Split out so the fuzz
// target can hit it directly.
func Decode(raw []byte) ([]trace.Record, error) {
	recs, err := decode(raw)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		if e := recs[i].Epoch; e < 0 || int64(e) > math.MaxUint32 {
			return nil, fmt.Errorf("report %d: epoch %d outside [0, %d]", i, e, uint32(math.MaxUint32))
		}
		if m := len(recs[i].Vector); m > packet.MaxVectorLen {
			return nil, fmt.Errorf("report %d: vector of %d metrics exceeds %d", i, m, packet.MaxVectorLen)
		}
	}
	return recs, nil
}

func decode(raw []byte) ([]trace.Record, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return nil, errors.New("empty body")
	}
	if raw[0] == '[' {
		var recs []trace.Record
		if err := json.Unmarshal(raw, &recs); err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, errors.New("empty report array")
		}
		return recs, nil
	}
	// Probe for the envelope by key presence, not content: {"reports": []}
	// must be reported as an empty batch (like the bare-array path), not
	// fall through to bare-record parsing and the misleading "report
	// without a vector".
	var probe struct {
		Reports json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(raw, &probe); err == nil && probe.Reports != nil {
		var recs []trace.Record
		if err := json.Unmarshal(probe.Reports, &recs); err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, errors.New("empty report array")
		}
		return recs, nil
	}
	// Not the batch envelope: treat the body as one bare record.
	var rec trace.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, err
	}
	if rec.Vector == nil {
		return nil, errors.New("report without a vector")
	}
	return []trace.Record{rec}, nil
}

// Item is one entry on the ingest queue, in commit (= LSN) order. A report
// batch carries Recs; a barrier carries Apply, which the ingest loop runs in
// place — how a model hot-swap or a shard handoff lands at an exact point in
// the report order. LSN is the WAL record the item was journaled as (0 when
// journaling is off or the barrier journals nothing); the ingest loop
// publishes it as the applied watermark once the item is done. Apply is an
// opaque closure so this package stays ignorant of the lifecycle layer;
// Pending is how many flagged states it adds to the monitor's backlog (a
// handoff import's), which admission counts like reports. Arena is the
// decoder memory Recs live in, if any; the ingest loop releases it.
type Item struct {
	LSN     uint64
	Recs    []trace.Record
	Arena   *Arena
	Apply   func()
	Pending int
}

// Weight is what the item costs against the queue's capacity, which is
// counted in reports; a barrier costs one so it still owns a queue slot.
func (it Item) Weight() int { return max(1, len(it.Recs)) }
