package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/sink"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// faultSink builds a WAL-backed sink from a generated testbed trace and a
// model trained on it, and returns it with the trace's records.
func faultSink(t *testing.T, dir string) (*sink.Server, []trace.Record) {
	t.Helper()
	res, err := tracegen.Testbed(tracegen.TestbedOptions{Seed: 5, Scenario: tracegen.ScenarioLocal})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.Dataset.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	model, _, err := vn2.Train(res.Dataset.States(), vn2.TrainConfig{Rank: 4, CompressAllStates: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mj bytes.Buffer
	if err := model.Save(&mj); err != nil {
		t.Fatal(err)
	}
	tracePath, modelPath := filepath.Join(dir, "trace.csv"), filepath.Join(dir, "model.json")
	for path, b := range map[string][]byte{tracePath: csv.Bytes(), modelPath: mj.Bytes()} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := sink.New(sink.Options{ModelPath: modelPath, CalibratePath: tracePath, QueueSize: 4096,
		SnapshotPath: filepath.Join(dir, "snapshot.json"), WALPath: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for _, id := range res.Dataset.Nodes() {
		recs = append(recs, res.Dataset.Records(id)...)
	}
	return srv, recs
}

// TestWriteAtomicFaults drives the three disk faults an atomic write can
// meet — a failed fsync of the temporary file, a failed rename, a failed
// fsync of the directory — through WriteAtomic and through the snapshot
// writer above it. Each returns the fault; the first two leave the previous
// file byte-identical. A failed directory fsync comes after the rename, so
// the path already names the new, whole file; only whether the rename
// survives a crash is unknown. In all three, PersistSnapshot truncates no
// WAL segment: the older snapshot a crash could bring back still has every
// record above its watermark.
func TestWriteAtomicFaults(t *testing.T) {
	dir := t.TempDir()
	srv, recs := faultSink(t, dir)
	defer srv.CloseWAL()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	segments := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m struct {
			Segments int `json:"wal_segments"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.Segments
	}
	// Re-offered records are stale to the monitor but journaled all the
	// same: each round adds ≈0.5 MB of WAL.
	post := func(rounds int) {
		t.Helper()
		for range rounds {
			body, _ := json.Marshal(recs)
			resp, err := http.Post(ts.URL+"/report", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("report: %d", resp.StatusCode)
			}
			srv.IngestQueued()
		}
	}
	post(3)
	if err := srv.PersistSnapshot(); err != nil {
		t.Fatal(err)
	}
	post(3)
	snapPath := filepath.Join(dir, "snapshot.json")
	prev, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	segs := segments()
	if segs < 2 {
		t.Fatalf("%d WAL segments: a truncation would have nothing to drop", segs)
	}

	for _, step := range []string{"fsync file", "rename", "fsync dir"} {
		boom := &os.PathError{Op: step, Path: dir, Err: syscall.EIO}
		restore := store.FailWriteAtomic(step, boom)
		path := filepath.Join(dir, "plain")
		if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := store.WriteFileAtomic(path, []byte("next"), true)
		got, _ := os.ReadFile(path)
		snapErr := srv.PersistSnapshot()
		snap, _ := os.ReadFile(snapPath)
		restore()

		if !errors.Is(err, boom) || !errors.Is(snapErr, boom) {
			t.Errorf("%s: WriteAtomic returned %v, PersistSnapshot %v, want the fault", step, err, snapErr)
		}
		renamed := step == "fsync dir"
		if want := map[bool]string{false: "previous", true: "next"}[renamed]; string(got) != want {
			t.Errorf("%s: the path holds %q, want %q", step, got, want)
		}
		if same := bytes.Equal(snap, prev); same == renamed {
			t.Errorf("%s: snapshot byte-identical to the previous one: %v, want %v", step, same, !renamed)
		}
		if _, err := store.ReadSnapshot(snapPath); err != nil {
			t.Errorf("%s: the snapshot does not read back: %v", step, err)
		}
		if n := segments(); n != segs {
			t.Errorf("%s: %d WAL segments after the failed snapshot, want %d: it truncated", step, n, segs)
		}
	}
}
