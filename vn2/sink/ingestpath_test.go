package sink

import (
	"slices"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// calmFrames is count delta frames of size records each, cycling over the
// fixture's nodes from their calibration tails: each report repeats its
// node's last vector one epoch later, a normal state, so nothing flags and
// no state outlives its batch. The first frame of each node is full.
func (f fixtures) calmFrames(t *testing.T, count, size int) [][]byte {
	t.Helper()
	nodes := f.nodes()
	enc := packet.NewFrameEncoder()
	frames := make([][]byte, count)
	batch := make([]trace.Record, size)
	for i := range frames {
		for k := range batch {
			n := i*size + k
			rec := f.tail[nodes[n%len(nodes)]]
			rec.Epoch += 1 + n/len(nodes)
			batch[k] = rec
		}
		frames[i] = binFrame(t, enc, batch)
	}
	return frames
}

// TestIngestPathAllocs: in steady state a delta frame costs the commit point
// and the ingest loop a fixed number of allocations, however many reports it
// carries — decode arenas, staged batches and the WAL envelope are reused,
// so what is left is per batch (the accepted event), never per report.
func TestIngestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates where the plain build does not")
	}
	const maxPerBatch = 4
	fx := serveFixtures(t)
	per := make(map[int]float64)
	for _, size := range []int{8, 64} {
		srv := walServer(t, fx, t.TempDir())
		defer srv.CloseWAL()
		frames := fx.calmFrames(t, 300, size)
		i := 0
		step := func() {
			if out := srv.commitFrame(frames[i]); out.status != packet.StreamAck {
				t.Fatalf("frame %d of %d records: %+v", i, size, out)
			}
			q, _ := srv.queue.TryNext()
			srv.ingestOne(q)
			i++
		}
		for i < 100 { // every node past its first, full report
			step()
		}
		per[size] = testing.AllocsPerRun(150, step)
		if st := srv.mon.Stats(); st.Normal != st.Reports-st.FirstReports {
			t.Fatalf("%d-record frames: %d of %d reports normal, %d first: the path measured is not the calm one", size, st.Normal, st.Reports, st.FirstReports)
		}
	}
	t.Logf("allocations per batch: %v at 8 records, %v at 64", per[8], per[64])
	if per[8] != per[64] || per[64] > maxPerBatch {
		t.Fatalf("allocations per batch: %v at 8 records, %v at 64; want equal and at most %d", per[8], per[64], maxPerBatch)
	}
}

// TestQueuedFramesKeepTheirRecords: a frame's records live in a decoder
// arena that is reused once its batch is applied, never while it is queued.
// With the ingest loop held, 20 frames' arenas sit on the queue at once, and
// then a second 20 frames reuse what the first released. The monitor must end bit-identical to one fed the same
// frames decoded, staged and applied in fresh memory, flagged states (which
// keep their deltas past the batch) included.
func TestQueuedFramesKeepTheirRecords(t *testing.T) {
	fx := serveFixtures(t)
	nodes := fx.nodes()
	var recs []trace.Record
	for round := 1; len(recs) < 40*8; round++ {
		for i, node := range nodes {
			rec := fx.tail[node]
			rec.Epoch += round
			if i < 6 {
				rec = fx.rampReport(t, node, round)
			}
			recs = append(recs, rec)
		}
	}
	enc := packet.NewFrameEncoder()
	frames := make([][]byte, 40)
	for i := range frames {
		frames[i] = binFrame(t, enc, recs[i*8:(i+1)*8])
	}

	held := walServer(t, fx, t.TempDir())
	defer held.CloseWAL()
	for _, half := range [][][]byte{frames[:20], frames[20:]} {
		for i, frame := range half {
			if out := held.commitFrame(frame); out.status != packet.StreamAck {
				t.Fatalf("frame %d: %+v", i, out)
			}
		}
		held.IngestQueued()
	}

	fresh := walServer(t, fx, t.TempDir())
	defer fresh.CloseWAL()
	dec := ingest.NewBinaryDecoder()
	for i, frame := range frames {
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		batch := make([]trace.Record, len(got))
		for k, rec := range got {
			batch[k] = trace.Record{Node: rec.Node, Epoch: rec.Epoch, Vector: slices.Clone(rec.Vector)}
		}
		fresh.mon.Apply(fresh.mon.Stage(batch)) // never released: nothing reused
	}

	for _, srv := range []*Server{held, fresh} {
		if _, err := srv.mon.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	if st := held.mon.Stats(); st.Flagged == 0 || st.Normal == 0 {
		t.Fatalf("stats %+v: want both flagged and normal reports", st)
	}
	if a, b := mustJSON(t, held.MonitorState()), mustJSON(t, fresh.MonitorState()); a != b {
		t.Fatalf("monitor fed from reused arenas differs from one fed fresh memory:\n arenas %s\n fresh  %s", a, b)
	}
}
