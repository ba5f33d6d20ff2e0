package wal

// Typed payload envelope. The WAL itself stores opaque bytes; the serve
// path needs several record kinds in one log — report batches and the
// model-swap and shard-handoff control records — replayed in a single LSN
// order so recovery re-applies every control record at exactly the
// position it happened between reports.
//
// A typed payload starts with a reserved 0x00 byte, followed by one kind
// byte, followed by the inner payload. Every record the serve path writes
// is typed; anything else decodes as kind 0, which no writer produces and
// replay counts as a bad record.

// Kind tags a typed WAL payload.
type Kind byte

const (
	// KindSwap is a model hot-swap control record (serve's swapRecord JSON).
	KindSwap Kind = 'S'
	// KindBatch is a report batch (internal/packet frame bytes) — the one
	// report record kind, whichever transport the batch arrived on. The
	// frame's records are always fully materialized — never deltas — so a
	// replay that starts after a snapshot truncation needs no history to
	// reconstruct them. One batch is one WAL record: one append, one shared
	// fsync.
	KindBatch Kind = 'B'
	// KindHandoff is a shard-handoff control record (store's HandoffRecord
	// JSON): on the releasing shard it marks the LSN at which a set of
	// nodes stopped being owned here, on the accepting shard it carries the
	// moved nodes' monitor slice. Replay re-applies the ownership change at
	// exactly its position between reports, so a crash on either side of a
	// rebalance recovers to the post-handoff state instead of resurrecting
	// (or losing) the moved nodes.
	KindHandoff Kind = 'H'
)

// typedMagic is the reserved first byte of a typed payload.
const typedMagic = 0x00

// AppendTyped is Append of payload in kind's envelope, written ahead of it: no copy.
func (w *WAL) AppendTyped(kind Kind, payload []byte) (uint64, error) { return w.append(kind, payload) }

// Decode splits a WAL payload into its kind and inner payload. A payload
// without the envelope comes back as kind 0, unchanged.
func Decode(data []byte) (Kind, []byte) {
	if len(data) < 2 || data[0] != typedMagic {
		return 0, data
	}
	return Kind(data[1]), data[2:]
}
