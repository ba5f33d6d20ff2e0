package online

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// FuzzImportNodes feeds arbitrary bytes through the accepting half of a
// shard handoff: decoded into a NodeSlice, they go to ValidateSlice and
// ImportNodes on a monitor restored from a driven one. Nothing may panic.
// The two must agree; a refused slice leaves State() byte for byte as it
// was, and an imported one leaves a monitor whose State() and EpochParts()
// encode and whose next Drain succeeds. Seeded from ExportNodes.
func FuzzImportNodes(f *testing.F) {
	r := newRig(f)
	cfg := Config{Model: r.model, Detector: r.det, Workers: 1}
	src, err := NewMonitor(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ingest := func(recs ...trace.Record) {
		for _, rec := range recs {
			if _, err := src.Ingest(rec); err != nil {
				f.Fatal(err)
			}
		}
	}
	for node := packet.NodeID(1); node <= 4; node++ {
		ingest(r.calm(node, 1), r.hot(node, 2))
	}
	if _, err := src.Drain(); err != nil {
		f.Fatal(err)
	}
	ingest(r.hot(1, 3), r.hot(2, 3)) // left pending
	for _, nodes := range [][]packet.NodeID{{1}, {2, 3}, {1, 2, 3, 4}, {9}} {
		b, err := json.Marshal(src.ExportNodes(nodes))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"nodes":[{"node":5,"epoch":1,"vector":[1]}]}`))
	f.Add([]byte(`{"pending":[{"state":{"node":5,"epoch":7,"delta":[1e300]},"score":1}]}`))
	base := src.State()

	f.Fuzz(func(t *testing.T, data []byte) {
		var sl NodeSlice
		if json.Unmarshal(data, &sl) != nil {
			return
		}
		m, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(base); err != nil {
			t.Fatal(err)
		}
		before, err := json.Marshal(m.State())
		if err != nil {
			t.Fatal(err)
		}
		verr, ierr := m.ValidateSlice(sl), m.ImportNodes(sl)
		if (verr == nil) != (ierr == nil) {
			t.Fatalf("ValidateSlice: %v, ImportNodes: %v", verr, ierr)
		}
		if ierr != nil {
			if after, err := json.Marshal(m.State()); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("a refused import (%v) changed State() (err %v)\nbefore %.300s\n after %.300s", ierr, err, before, after)
			}
			return
		}
		if _, err := json.Marshal(m.State()); err != nil {
			t.Fatalf("State() after an import does not encode: %v", err)
		}
		if _, _, err := m.EpochParts(); err != nil {
			t.Fatalf("EpochParts after an import: %v", err)
		}
		if _, err := m.Drain(); err != nil {
			t.Fatalf("Drain after an import: %v", err)
		}
	})
}
