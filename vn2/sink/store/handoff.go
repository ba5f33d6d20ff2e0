package store

import (
	"encoding/json"

	"github.com/wsn-tools/vn2/internal/packet"
)

// Handoff directions. A rebalance writes one record on each side: the
// releasing shard journals HandoffOut (these nodes stopped being owned
// here at this LSN), the accepting shard journals HandoffIn carrying the
// moved slice itself.
const (
	HandoffOut = "out"
	HandoffIn  = "in"
)

// HandoffRecord is the KindHandoff WAL payload. Slice is the marshalled
// online.NodeSlice, kept opaque here so store stays below the monitor in
// the layering; it is set only on HandoffIn records (the releasing side
// needs just the node list — its WAL already contains the nodes' own
// report records, and replay re-drops them at this record's position).
type HandoffRecord struct {
	Dir   string          `json:"dir"`
	Nodes []packet.NodeID `json:"nodes,omitempty"`
	Slice json.RawMessage `json:"slice,omitempty"`
}
