package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
)

// journaled is one record as Replay hands it back.
type journaled struct {
	lsn   uint64
	kind  RecordKind
	inner []byte
}

func replayAll(t *testing.T, j *Journal) []journaled {
	t.Helper()
	var got []journaled
	err := j.Replay(func(lsn uint64, kind RecordKind, inner []byte) error {
		got = append(got, journaled{lsn, kind, append([]byte(nil), inner...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

// mustReplay requires a replay to return want, record for record.
func mustReplay(t *testing.T, what string, j *Journal, want []journaled) {
	t.Helper()
	got := replayAll(t, j)
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.lsn != w.lsn || g.kind != w.kind || !bytes.Equal(g.inner, w.inner) {
			t.Fatalf("%s: record %d is lsn %d kind %d (%d bytes), want lsn %d kind %d (%d bytes)",
				what, i, g.lsn, g.kind, len(g.inner), w.lsn, w.kind, len(w.inner))
		}
	}
}

// TestJournalReplaysEveryKind: batches, a swap record and a handoff record,
// appended in one order and made durable, come back from a reopened journal
// after a crash (Abort, no flush) with their kinds, LSNs and payloads, in
// that order; the reopened journal hands out the next LSN.
func TestJournalReplaysEveryKind(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []journaled
	batch := func(node packet.NodeID, epoch int) {
		t.Helper()
		enc := packet.NewFrameEncoder()
		if err := enc.AddFull(node, epoch, []float64{1, 2.5, float64(epoch)}); err != nil {
			t.Fatal(err)
		}
		frame, err := enc.Frame()
		if err != nil {
			t.Fatal(err)
		}
		lsn, err := j.AppendBatch(frame)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		want = append(want, journaled{lsn, KindBatch, frame})
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	batch(3, 10)
	batch(4, 10)
	swap := SwapRecord{Version: 2, Parent: 1, Origin: "retrain", File: ModelFileName(2)}
	lsn, err := j.AppendControl(KindSwap, swap)
	if err != nil {
		t.Fatalf("AppendControl(KindSwap): %v", err)
	}
	want = append(want, journaled{lsn, KindSwap, marshal(swap)})
	batch(3, 11)
	in := HandoffRecord{Dir: HandoffIn, Nodes: []packet.NodeID{7, 9}, Slice: json.RawMessage(`{"nodes":[]}`)}
	if lsn, err = j.AppendControl(KindHandoff, in); err != nil {
		t.Fatalf("AppendControl(KindHandoff): %v", err)
	}
	want = append(want, journaled{lsn, KindHandoff, marshal(in)})
	out := HandoffRecord{Dir: HandoffOut, Nodes: []packet.NodeID{4}}
	if lsn, err = j.AppendControl(KindHandoff, out); err != nil {
		t.Fatalf("AppendControl(KindHandoff): %v", err)
	}
	want = append(want, journaled{lsn, KindHandoff, marshal(out)})
	batch(9, 12)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if w.lsn != uint64(i+1) {
			t.Fatalf("append %d got lsn %d, want %d: LSNs are dense from 1", i, w.lsn, i+1)
		}
	}
	mustReplay(t, "the open journal", j, want)
	if err := j.Abort(); err != nil {
		t.Fatal(err)
	}

	j, err = OpenJournal(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	mustReplay(t, "the reopened journal", j, want)
	if next := j.NextLSN(); next != uint64(len(want)+1) {
		t.Fatalf("reopened journal hands out lsn %d next, want %d", next, len(want)+1)
	}
	if j.Errs() != 0 || j.Truncations() != 0 {
		t.Fatalf("a clean run counted %d errors and %d truncated tails", j.Errs(), j.Truncations())
	}
}

// TestJournalTruncateBefore: only segments whose every record is below the
// LSN go, never the active one, and what is left replays from the first
// retained segment's start — also after a reopen.
func TestJournalTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Records of 300 KB fill the default 1 MiB segment in four.
	var all []journaled
	var starts []uint64 // first LSN of each segment
	for i := 0; i < 14; i++ {
		segs := j.Segments()
		frame := bytes.Repeat([]byte{byte(i)}, 300<<10)
		lsn, err := j.AppendBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || j.Segments() > segs {
			starts = append(starts, lsn)
		}
		all = append(all, journaled{lsn, KindBatch, frame})
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 || j.Segments() != len(starts) {
		t.Fatalf("%d segments (starts %v): want at least three to truncate", j.Segments(), starts)
	}
	from := func(lsn uint64) []journaled { return all[lsn-1:] }

	for _, c := range []struct {
		before uint64
		first  uint64 // first LSN left
	}{
		{starts[1] - 1, starts[0]}, // the first segment's last record is not below it
		{starts[1], starts[1]},     // the first segment is covered
		{starts[2] - 1, starts[1]},
		{1 << 40, starts[len(starts)-1]}, // everything: the active segment stays
	} {
		if err := j.TruncateBefore(c.before); err != nil {
			t.Fatalf("TruncateBefore(%d): %v", c.before, err)
		}
		mustReplay(t, fmt.Sprintf("after TruncateBefore(%d)", c.before), j, from(c.first))
	}
	if err := j.Abort(); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustReplay(t, "the reopened truncated journal", j, from(starts[len(starts)-1]))
	if j.Segments() != 1 || j.Errs() != 0 {
		t.Fatalf("reopened: %d segments, %d errors; want the active one, none", j.Segments(), j.Errs())
	}
}
