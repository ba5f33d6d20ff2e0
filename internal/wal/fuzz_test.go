package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"testing"
)

// wholeRecords parses data the way a segment is framed and returns the
// payloads of its longest prefix of whole, CRC-valid frames — what recovery
// must keep of a segment holding data.
func wholeRecords(data []byte) [][]byte {
	var out [][]byte
	for len(data) >= frameHeader {
		n := binary.LittleEndian.Uint32(data[0:4])
		if n > MaxRecordBytes || uint64(len(data)-frameHeader) < uint64(n) {
			break
		}
		payload := data[frameHeader : frameHeader+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
			break
		}
		out = append(out, payload)
		data = data[frameHeader+int(n):]
	}
	return out
}

// FuzzReplaySegment makes arbitrary bytes the only segment of a log. Open
// never panics; Replay returns the longest prefix of whole CRC-valid records,
// with LSNs 1..n; a second Open truncates nothing and replays the same
// records; and an Append + Sync + reopen replays that prefix plus the new
// record. Seeded from a real multi-record segment and torn and corrupt
// variants of it.
func FuzzReplaySegment(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.Append(nil); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	for _, cut := range []int{0, 3, frameHeader, frameHeader + 4, len(seg) / 2, len(seg) - 1} {
		f.Add(seg[:cut])
	}
	for _, at := range []int{0, 4, frameHeader + 1, len(seg) - 1} {
		flipped := bytes.Clone(seg)
		flipped[at] ^= 0x5a
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := wholeRecords(data)
		check := func(w *WAL, what string, want [][]byte) {
			t.Helper()
			lsns, payloads := collect(t, w)
			if len(payloads) != len(want) {
				t.Fatalf("%s: replayed %d records, want %d", what, len(payloads), len(want))
			}
			for i, p := range payloads {
				if lsns[i] != uint64(i)+1 || p != string(want[i]) {
					t.Fatalf("%s: record %d is lsn %d %q, want lsn %d %q", what, i, lsns[i], p, i+1, want[i])
				}
			}
		}

		w, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		check(w, "first open", want)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		w, err = Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if n := w.Truncations(); n != 0 {
			t.Fatalf("second Open truncated %d tails of a repaired log", n)
		}
		check(w, "second open", want)
		if lsn, err := w.Append([]byte("appended")); err != nil || lsn != uint64(len(want))+1 {
			t.Fatalf("Append: lsn %d err %v, want lsn %d", lsn, err, len(want)+1)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Abort(); err != nil {
			t.Fatal(err)
		}

		w, err = Open(dir)
		if err != nil {
			t.Fatalf("Open after append: %v", err)
		}
		defer w.Close()
		check(w, "reopen after append", append(want, []byte("appended")))
	})
}
