package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// mustOpen opens dir rotating its segments at segBytes.
func mustOpen(t *testing.T, dir string, segBytes int64) *WAL {
	t.Helper()
	w, err := open(dir, segBytes)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func appendN(t *testing.T, w *WAL, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("%s-%04d", tag, i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func collect(t *testing.T, w *WAL) (lsns []uint64, payloads []string) {
	t.Helper()
	if err := w.Replay(func(lsn uint64, p []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(p))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return
}

// TestAppendReplayRoundTrip: LSNs are contiguous from 1 and payloads replay
// in order, both live and after reopen.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, segmentBytes)
	appendN(t, w, 25, "rec")
	lsns, payloads := collect(t, w)
	if len(lsns) != 25 || lsns[0] != 1 || lsns[24] != 25 {
		t.Fatalf("lsns = %v", lsns)
	}
	for i, p := range payloads {
		if want := fmt.Sprintf("rec-%04d", i); p != want {
			t.Fatalf("payload %d = %q, want %q", i, p, want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := mustOpen(t, dir, segmentBytes)
	if got := w2.NextLSN(); got != 26 {
		t.Fatalf("NextLSN after reopen = %d, want 26", got)
	}
	lsns2, _ := collect(t, w2)
	if len(lsns2) != 25 {
		t.Fatalf("reopen replay saw %d records, want 25", len(lsns2))
	}
	// Appends continue the sequence.
	lsn, err := w2.Append([]byte("after"))
	if err != nil || lsn != 26 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
	w2.Close()
}

// TestRotationAndRetention: small segments rotate, and rotation alone never
// deletes anything — retention is TruncateBefore only, because a record past
// the snapshot watermark may be acknowledged data that exists nowhere else.
// 200 rotated, un-truncated segments all replay, live and after a reopen.
func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, 64)
	const n = 800
	appendN(t, w, n, "rot") // each frame is 8+8 = 16B → 4 records/segment
	if segs := w.Segments(); segs != n/4 {
		t.Fatalf("segments = %d, want %d", segs, n/4)
	}
	check := func(w *WAL) {
		t.Helper()
		lsns, _ := collect(t, w)
		if len(lsns) != n || lsns[0] != 1 || lsns[n-1] != n {
			t.Fatalf("replayed %d records, want all %d (1..%d)", len(lsns), n, n)
		}
	}
	check(w)
	w.Close()
	if ents, _ := os.ReadDir(dir); len(ents) != n/4 {
		t.Fatalf("%d segment files on disk, want %d", len(ents), n/4)
	}
	w2 := mustOpen(t, dir, 64)
	check(w2)
	w2.Close()
}

// TestTruncateBefore drops only wholly-covered segments and never the
// active one.
func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, 64)
	appendN(t, w, 20, "tr")
	before := w.Segments()
	if before < 3 {
		t.Fatalf("want ≥3 segments, got %d", before)
	}
	if err := w.TruncateBefore(9); err != nil { // records 1..8 in first two segments
		t.Fatalf("TruncateBefore: %v", err)
	}
	lsns, _ := collect(t, w)
	// Whole segments below LSN 9 are gone; record 9 itself must survive, so
	// the retained floor is above 1 but not above 9, and the tail is intact.
	if lsns[0] == 1 || lsns[0] > 9 || lsns[len(lsns)-1] != 20 {
		t.Fatalf("retained %d..%d after TruncateBefore(9)", lsns[0], lsns[len(lsns)-1])
	}
	// Truncating everything still keeps the active segment.
	if err := w.TruncateBefore(1 << 40); err != nil {
		t.Fatalf("TruncateBefore(max): %v", err)
	}
	if w.Segments() != 1 {
		t.Fatalf("segments after full truncate = %d, want 1 (active)", w.Segments())
	}
	w.Close()
}

// TestUnsyncedAppendsLostOnAbort is the kill -9 contract: buffered,
// unsynced appends vanish; synced ones survive, and they are exactly what
// Durable named.
func TestUnsyncedAppendsLostOnAbort(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, segmentBytes)
	appendN(t, w, 5, "durable")
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	appendN(t, w, 7, "volatile") // never synced
	if d := w.Durable(); d != 5 {
		t.Fatalf("Durable = %d with 7 appends unsynced, want 5", d)
	}
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	w2 := mustOpen(t, dir, segmentBytes)
	lsns, payloads := collect(t, w2)
	if len(lsns) != 5 {
		t.Fatalf("recovered %d records, want the 5 synced ones (got %v)", len(lsns), payloads)
	}
	if w2.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", w2.NextLSN())
	}
	w2.Close()
}

// corruptTail flips a byte inside the last record's payload of the given
// segment file.
func corruptTail(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty segment")
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryTruncatesCorruptTail: a flipped byte in the tail record cuts
// the log at the last whole record instead of failing Open.
func TestRecoveryTruncatesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, segmentBytes)
	appendN(t, w, 10, "c")
	w.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	corruptTail(t, segs[len(segs)-1])

	w2 := mustOpen(t, dir, segmentBytes)
	if w2.Truncations() == 0 {
		t.Fatal("recovery reported no truncation")
	}
	lsns, _ := collect(t, w2)
	if len(lsns) != 9 {
		t.Fatalf("recovered %d records, want 9 (corrupt tail cut)", len(lsns))
	}
	// The log keeps working: the next append replaces the cut record's LSN.
	lsn, err := w2.Append([]byte("fresh"))
	if err != nil || lsn != 10 {
		t.Fatalf("append after recovery: lsn=%d err=%v", lsn, err)
	}
	w2.Sync()
	w2.Close()
	w3 := mustOpen(t, dir, segmentBytes)
	_, payloads := collect(t, w3)
	if payloads[len(payloads)-1] != "fresh" {
		t.Fatalf("tail = %q, want the re-appended record", payloads[len(payloads)-1])
	}
	w3.Close()
}

// TestRecoveryTornWrite simulates a crash mid-frame: a header promising more
// bytes than exist is cut cleanly.
func TestRecoveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, segmentBytes)
	appendN(t, w, 3, "whole")
	w.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header claiming 100 bytes, followed by only 4.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte("x"), crcTable))
	f.Write(hdr[:])
	f.Write([]byte("torn"))
	f.Close()

	w2 := mustOpen(t, dir, segmentBytes)
	lsns, _ := collect(t, w2)
	if len(lsns) != 3 {
		t.Fatalf("recovered %d records, want 3", len(lsns))
	}
	if w2.Truncations() == 0 {
		t.Fatal("torn write not counted as a truncation")
	}
	w2.Close()
}

// TestRecoveryDropsSegmentsPastCorruption: corruption in a middle segment
// removes every later segment.
func TestRecoveryDropsSegmentsPastCorruption(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, 64)
	appendN(t, w, 20, "mid")
	if w.Segments() < 3 {
		t.Fatalf("want ≥3 segments, got %d", w.Segments())
	}
	w.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	corruptTail(t, segs[1]) // second segment's tail record

	w2 := mustOpen(t, dir, segmentBytes)
	lsns, _ := collect(t, w2)
	// Everything before the corrupt record survives; nothing after.
	want := uint64(0)
	for _, l := range lsns {
		want++
		if l != want {
			t.Fatalf("lsns not 1..n: %v", lsns)
		}
	}
	if len(lsns) >= 20 || len(lsns) < 4 {
		t.Fatalf("recovered %d records; corruption in segment 2 should cut mid-log", len(lsns))
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(left) >= len(segs) {
		t.Fatalf("post-corruption segments not dropped: %d files", len(left))
	}
	w2.Close()
}

// TestRecordTooLargeAndClosed covers the typed error paths.
func TestRecordTooLargeAndClosed(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, segmentBytes)
	if _, err := w.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	w.Close()
	if _, err := w.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := w.Sync(); err != ErrClosed {
		t.Fatalf("sync after close: %v", err)
	}
	if w.Close() != nil {
		t.Fatal("double close should be nil")
	}
}

// TestEmptyPayload round-trips a zero-length record.
func TestEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, segmentBytes)
	if _, err := w.Append(nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	w.Sync()
	_, payloads := collect(t, w)
	if len(payloads) != 1 || !bytes.Equal([]byte(payloads[0]), []byte{}) {
		t.Fatalf("payloads = %q", payloads)
	}
	w.Close()
}
