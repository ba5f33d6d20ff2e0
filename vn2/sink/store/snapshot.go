package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
)

// SnapshotVersion guards the snapshot file format. Version 2 added the
// monitor's rolling state and the WAL applied-LSN watermark; version 3 the
// serving model's generation and swap history. Version 1 files (model +
// detector + summary only) still load, they just re-warm; version 2 files
// load as generation 1 with no history.
const SnapshotVersion = 3

// Snapshot is the periodic on-disk state: the model (as its vn2.Save
// envelope, so restoring revalidates through vn2.Load), the frozen
// detector, the rolling summary for observability, and — since version 2 —
// the monitor's full rolling state plus the WAL watermark. A server
// restarted with only -snapshot resumes mid-stream; a WAL replay on top
// recovers everything accepted after the snapshot was cut.
type Snapshot struct {
	Version  int                  `json:"version"`
	SavedAt  time.Time            `json:"saved_at"`
	Model    json.RawMessage      `json:"model"`
	Detector *trace.Detector      `json:"detector"`
	Summary  online.Summary       `json:"summary"`
	Monitor  *online.MonitorState `json:"monitor,omitempty"`
	// WALApplied is the largest LSN known ingested when the snapshot was
	// cut: every record at or below it is reflected in Monitor. Captured
	// BEFORE the monitor state is exported, so the state always covers at
	// least the watermark — replaying a little extra is benign (the
	// monitor's duplicate/stale handling absorbs it), losing some is not.
	WALApplied uint64 `json:"wal_applied,omitempty"`
	// ModelVersion is the serving generation whose envelope Model holds;
	// Swaps is the lifecycle history at snapshot time. Version 3 fields.
	ModelVersion uint64      `json:"model_version,omitempty"`
	Swaps        []SwapEvent `json:"swaps,omitempty"`
}

// ReadSnapshot loads and version-checks a snapshot file. A missing file is
// a first run, not an error: the result is (nil, nil).
func ReadSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// First run; the file appears after the first snapshot tick.
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("read snapshot: %w", err)
	}
	snap := &Snapshot{}
	if err := json.Unmarshal(b, snap); err != nil {
		return nil, fmt.Errorf("decode snapshot %s: %w", path, err)
	}
	if snap.Version < 1 || snap.Version > SnapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d", snap.Version)
	}
	return snap, nil
}

// WriteSnapshot streams snap to w as the bytes json.Marshal(snap) gives
// without ever holding them: member by member, every array one element at a
// time through one buffer. epochs stands for snap.Monitor.Epochs, which must
// be empty: the monitor's rendered parts (online.Capture), spliced in as
// they are. Returns the bytes written. The members are listed by hand, in
// struct order under the structs' omitempty rules; a field added to
// Snapshot, online.MonitorState or online.Summary must be added here
// (TestStreamKnowsEveryField holds that).
func WriteSnapshot(w io.Writer, snap *Snapshot, epochs [][]byte) (int64, error) {
	if snap.Monitor != nil && len(snap.Monitor.Epochs) > 0 {
		return 0, errors.New("write snapshot: monitor epochs given as structs and as rendered parts")
	}
	s := &jsonStream{w: bufio.NewWriterSize(w, 32<<10)}
	s.enc = json.NewEncoder(&s.el)
	s.member(`{"version":`, snap.Version)
	s.member(`,"saved_at":`, snap.SavedAt)
	s.member(`,"model":`, snap.Model)
	s.member(`,"detector":`, snap.Detector)
	sum := &snap.Summary
	s.member(`,"summary":{"stats":`, &sum.Stats)
	s.member(`,"pending":`, sum.Pending)
	s.member(`,"rank":`, sum.Rank)
	streamArray(s, `,"epochs":`, sum.Epochs, false)
	streamArray(s, `,"recent":`, sum.Recent, false)
	s.member(`,"drift":`, &sum.Drift)
	s.raw(`}`)
	if st := snap.Monitor; st != nil {
		s.member(`,"monitor":{"stats":`, &st.Stats)
		streamArray(s, `,"nodes":`, st.Nodes, false)
		streamArray(s, `,"pending":`, st.Pending, true)
		if len(epochs) > 0 {
			s.raw(`,"epochs":[`)
			for i, part := range epochs {
				if i > 0 {
					s.raw(`,`)
				}
				s.write(part)
			}
			s.raw(`]`)
		}
		streamArray(s, `,"recent":`, st.Recent, true)
		if st.ModelVersion != 0 {
			s.member(`,"model_version":`, st.ModelVersion)
		}
		streamArray(s, `,"quarantine":`, st.Quarantine, true)
		streamArray(s, `,"residuals":`, st.Residuals, true)
		s.raw(`}`)
	}
	if snap.WALApplied != 0 {
		s.member(`,"wal_applied":`, snap.WALApplied)
	}
	if snap.ModelVersion != 0 {
		s.member(`,"model_version":`, snap.ModelVersion)
	}
	streamArray(s, `,"swaps":`, snap.Swaps, true)
	s.raw(`}`)
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.n, s.err
}

// jsonStream writes JSON piecewise; the first error sticks and mutes the rest.
type jsonStream struct {
	w   *bufio.Writer
	el  bytes.Buffer  // the one element being encoded
	enc *json.Encoder // onto el: Marshal's encoding without Marshal's copy
	n   int64
	err error
}

func (s *jsonStream) write(p []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(p)
		s.n += int64(len(p))
	}
}

func (s *jsonStream) raw(p string) { s.write([]byte(p)) }

// member writes key — the punctuation before it included — and v's encoding.
func (s *jsonStream) member(key string, v any) {
	s.raw(key)
	s.el.Reset()
	if s.err == nil {
		s.err = s.enc.Encode(v)
	}
	s.write(bytes.TrimSuffix(s.el.Bytes(), []byte("\n"))) // Encode ends a value with a newline
}

// streamArray writes key and xs one element at a time; an empty xs is
// nothing at all under omitempty, else Marshal's null or [].
func streamArray[T any](s *jsonStream, key string, xs []T, omitempty bool) {
	switch {
	case len(xs) > 0:
		sep := key + `[`
		for i := range xs {
			s.member(sep, &xs[i])
			sep = `,`
		}
		s.raw(`]`)
	case omitempty:
	case xs == nil:
		s.raw(key + `null`)
	default:
		s.raw(key + `[]`)
	}
}
