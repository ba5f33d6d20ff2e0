// Package store is the sink's durability layer: the report journal (a thin
// wrapper over internal/wal adding typed records and error accounting), the
// snapshot file format, and the atomic-file primitives the lifecycle uses
// for persisted model generations. Nothing here knows about HTTP, the event
// bus, or the monitor — callers hand in bytes and records and get LSNs back.
package store

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/wal"
)

// RecordKind aliases the WAL's frame kind so layers above store never
// import internal/wal directly.
type RecordKind = wal.Kind

// Journal frame kinds.
const (
	KindSwap    = wal.KindSwap
	KindBatch   = wal.KindBatch
	KindHandoff = wal.KindHandoff
)

// Journal wraps the write-ahead log with typed records and the wal_errors
// counter. It retries nothing: the WAL fails stop, and after its first
// failure every call returns wal.ErrPoisoned until a restart reopens it.
type Journal struct {
	w    *wal.WAL
	errs atomic.Uint64
}

// OpenJournal opens (or creates) the WAL directory. sleep is ignored: it
// was the retry sleeper, and the frozen benchmark harness still passes nil.
func OpenJournal(dir string, sleep func(time.Duration)) (*Journal, error) {
	w, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Journal{w: w}, nil
}

// AppendRecord journals one report as a one-record batch. Nothing in the
// sink calls it — every transport commits whole batches through
// AppendBatch — but the frozen benchmark harness still times it, so it
// stays as a shim over the single record kind replay reads.
func (j *Journal) AppendRecord(rec trace.Record) (uint64, error) {
	enc := packet.NewFrameEncoder()
	if err := enc.AddFull(rec.Node, rec.Epoch, rec.Vector); err != nil {
		return 0, err
	}
	frame, err := enc.Frame()
	if err != nil {
		return 0, err
	}
	return j.AppendBatch(frame)
}

// AppendBatch journals one report batch as a single WAL record. The frame
// must contain only fully-materialized records — replay after a snapshot
// truncation has no delta history. The batch is durable only after a later
// Sync. The frame is written as it is, behind the envelope: not copied.
func (j *Journal) AppendBatch(frame []byte) (uint64, error) {
	lsn, err := j.w.AppendTyped(wal.KindBatch, frame)
	return lsn, j.count(err)
}

// Sync group-commits everything appended so far. One fsync covers every
// batch of the request (and any a concurrent request just appended).
func (j *Journal) Sync() error { return j.count(j.w.Sync()) }

// SyncTo makes the records up to lsn durable, joining an fsync in flight
// that covers them rather than one for whatever was appended since.
func (j *Journal) SyncTo(lsn uint64) error { return j.count(j.w.SyncTo(lsn)) }

// AppendControl journals one control record — a SwapRecord under
// KindSwap, a HandoffRecord under KindHandoff — and fsyncs it immediately:
// a swap or handoff that cannot be made durable is the caller's to surface.
func (j *Journal) AppendControl(kind RecordKind, rec any) (uint64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	lsn, err := j.w.AppendTyped(kind, payload)
	if err == nil {
		err = j.w.Sync()
	}
	if j.count(err) != nil {
		return 0, fmt.Errorf("journal control record %q: %w", kind, err)
	}
	return lsn, nil
}

// Replay walks every retained frame oldest-first, decoding the typed frame
// header so the callback sees the kind and the inner payload.
func (j *Journal) Replay(fn func(lsn uint64, kind RecordKind, inner []byte) error) error {
	return j.w.Replay(func(lsn uint64, payload []byte) error {
		kind, inner := wal.Decode(payload)
		return fn(lsn, kind, inner)
	})
}

// TruncateBefore drops segments wholly below lsn (snapshot-coordinated).
func (j *Journal) TruncateBefore(lsn uint64) error { return j.count(j.w.TruncateBefore(lsn)) }

// count adds a failed call to the wal_errors metric and passes its error on.
func (j *Journal) count(err error) error {
	if err != nil {
		j.errs.Add(1)
	}
	return err
}

// Errs is the total failed appends/syncs/truncations (the wal_errors
// metric).
func (j *Journal) Errs() uint64 { return j.errs.Load() }

// NextLSN returns the LSN the next append will get.
func (j *Journal) NextLSN() uint64 { return j.w.NextLSN() }

// Durable returns the LSN the last successful fsync covered.
func (j *Journal) Durable() uint64 { return j.w.Durable() }

// Segments returns the retained segment count.
func (j *Journal) Segments() int { return j.w.Segments() }

// Truncations returns how many torn or corrupt tails recovery cut.
func (j *Journal) Truncations() uint64 { return j.w.Truncations() }

// Close flushes, fsyncs and closes the journal.
func (j *Journal) Close() error { return j.w.Close() }

// Abort closes without flushing — the crash-simulation hook.
func (j *Journal) Abort() error { return j.w.Abort() }
