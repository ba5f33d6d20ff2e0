package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
)

// tempFiles lists what an atomic write may leave behind in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestWriteAtomic: the path shows the old bytes until the new ones are all
// there, a fill that fails half-way changes nothing and leaves no temporary
// file, and the []byte form is the streaming form.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	old, next := []byte("the previous file"), bytes.Repeat([]byte("next "), 1000)
	if err := WriteFileAtomic(path, old, false); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk went away")
	err := WriteAtomic(path, true, func(w io.Writer) error {
		if _, err := w.Write(next[:len(next)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed fill: err = %v, want the fill's error", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Fatalf("failed fill: path holds %q, want the previous file", got)
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed fill left %v behind", left)
	}

	err = WriteAtomic(path, true, func(w io.Writer) error {
		if _, err := w.Write(next[:len(next)/2]); err != nil {
			return err
		}
		// Half written: a reader still gets the previous file, whole.
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Errorf("mid-write: path holds %d bytes, want the previous file", len(got))
		}
		_, err := w.Write(next[len(next)/2:])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := os.ReadFile(path)
	other := filepath.Join(dir, "other.json")
	if err := WriteFileAtomic(other, next, true); err != nil {
		t.Fatal(err)
	}
	whole, _ := os.ReadFile(other)
	if !bytes.Equal(streamed, next) || !bytes.Equal(whole, next) {
		t.Fatalf("streamed %d bytes, whole %d bytes, want %d identical", len(streamed), len(whole), len(next))
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("successful writes left %v behind", left)
	}
}

func TestReadSnapshot(t *testing.T) {
	dir := t.TempDir()
	if snap, err := ReadSnapshot(filepath.Join(dir, "none.json")); snap != nil || err != nil {
		t.Fatalf("missing file: (%v, %v), want a first run's (nil, nil)", snap, err)
	}
	good, _, _ := fullSnapshot(t)
	raw, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap.json")
	for name, body := range map[string][]byte{
		"truncated":     raw[:len(raw)/2],
		"empty":         nil,
		"version 0":     []byte(`{"version":0}`),
		"a later build": []byte(`{"version":4}`),
	} {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := ReadSnapshot(path); err == nil {
			t.Errorf("%s: read as %+v, want an error", name, snap)
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(snap); !bytes.Equal(again, raw) {
		t.Fatal("a snapshot read back does not marshal to the file it was read from")
	}
}

// fullSnapshot is a snapshot with every field of Snapshot, MonitorState and
// Summary set (TestStreamKnowsEveryField checks that it is), in the two
// forms the writer and its oracle take: the monitor's epochs as structs
// inside whole, and the same snapshot without them beside their rendered
// parts.
func fullSnapshot(t *testing.T) (whole, bare *Snapshot, parts [][]byte) {
	t.Helper()
	at := time.Date(2014, 6, 30, 12, 0, 0, 123456789, time.UTC)
	state := trace.StateVector{Node: 7, Epoch: 41, Gap: 2, Delta: []float64{1.5, -2, 1e-9}}
	flagged := online.Flagged{State: state, Score: 3.25, Diagnosis: &vn2.Diagnosis{
		Weights: []float64{0, 0.5}, Ranked: []vn2.RankedCause{{Cause: 1, Strength: 0.5}}, Residual: 0.125,
	}}
	stats := online.Stats{Reports: 9, Flagged: 3, Diagnosed: 2, LastEpoch: 41, MaxGap: 2}
	epochs := []online.EpochState{
		{Epoch: 40, Contribs: []online.Contribution{{Node: 3, Causes: nil}, {Node: 7, Causes: []vn2.RankedCause{{Cause: 0, Strength: 1.0 / 3}}}}},
		{Epoch: 41, Contribs: []online.Contribution{}},
	}
	mon := online.MonitorState{
		Stats:        stats,
		Nodes:        []online.NodeState{{Node: 3, Epoch: 41, Vector: []float64{1, 2, 3}}, {Node: 7, Epoch: 41, Vector: []float64{4, 5, 6}}},
		Pending:      []online.PendingState{{State: state, Score: 2}},
		Epochs:       epochs,
		Recent:       []online.Flagged{flagged, flagged},
		ModelVersion: 2,
		Quarantine:   []trace.StateVector{state},
		Residuals:    []online.ResidualSample{{Rel: 0.75, Unattributed: true}, {Rel: 0.1}},
	}
	whole = &Snapshot{
		Version: SnapshotVersion,
		SavedAt: at,
		// Marshal compacts a raw message and escapes HTML in it; the stream must too.
		Model:    json.RawMessage("{\n  \"rank\": 2,\n  \"note\": \"a<b & c\"\n}"),
		Detector: &trace.Detector{Center: []float64{0, 1}, Scale: []float64{1, 2}, RefMax: 10, Threshold: 0.01},
		Summary: online.Summary{
			Stats: stats, Pending: 1, Rank: 2,
			Epochs: []online.EpochCauses{{Epoch: 40, States: 2, Distribution: []float64{1.0 / 3, 0}}},
			Recent: []online.Flagged{flagged},
			Drift:  online.DriftStats{ModelVersion: 2, Window: 2, P50: 0.1, Quarantine: 1},
		},
		Monitor:      &mon,
		WALApplied:   1234,
		ModelVersion: 2,
		Swaps:        []SwapEvent{{Version: 2, Parent: 1, Origin: "retrain", At: at}},
	}
	for i := range epochs {
		part, err := json.Marshal(&epochs[i])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	bareMon := mon
	bareMon.Epochs = nil
	b := *whole
	b.Monitor = &bareMon
	return whole, &b, parts
}

// mustStreamAsMarshal requires WriteSnapshot's bytes to be json.Marshal's.
func mustStreamAsMarshal(t *testing.T, name string, whole, bare *Snapshot, parts [][]byte) []byte {
	t.Helper()
	want, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, err := WriteSnapshot(&got, bare, parts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if n != int64(got.Len()) {
		t.Errorf("%s: reported %d bytes, wrote %d", name, n, got.Len())
	}
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		t.Fatalf("%s: stream differs from json.Marshal at byte %d:\n got …%.120s\nwant …%.120s", name, i, got.Bytes()[max(0, i-40):], want[max(0, i-40):])
	}
	return got.Bytes()
}

// TestWriteSnapshotIsMarshal: the streamed file is the marshalled one, byte
// for byte, whether every optional member is there, none is, or the slices
// Marshal writes as null are nil.
func TestWriteSnapshotIsMarshal(t *testing.T) {
	whole, bare, parts := fullSnapshot(t)
	mustStreamAsMarshal(t, "every field set", whole, bare, parts)

	empty := &Snapshot{Version: SnapshotVersion, Monitor: &online.MonitorState{Nodes: []online.NodeState{}},
		Summary: online.Summary{Epochs: []online.EpochCauses{}}}
	mustStreamAsMarshal(t, "an empty monitor", empty, empty, nil)
	mustStreamAsMarshal(t, "the zero snapshot", &Snapshot{}, &Snapshot{}, nil)

	if _, err := WriteSnapshot(io.Discard, whole, parts); err == nil {
		t.Error("epochs given as structs and as parts: want an error, not one of them silently dropped")
	}
	boom := errors.New("disk full")
	if _, err := WriteSnapshot(failingWriter{boom}, bare, parts); !errors.Is(err, boom) {
		t.Errorf("a failing writer: err = %v, want its error", err)
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write(p []byte) (int, error) { return 0, f.err }

// jsonNames lists a struct type's JSON member names.
func jsonNames(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestStreamKnowsEveryField is the guard on the hand-written member list: a
// field added to Snapshot, MonitorState or Summary — omitempty or not — that
// WriteSnapshot does not write fails here, by name, as does a fixture that
// would let it hide by leaving it zero.
func TestStreamKnowsEveryField(t *testing.T) {
	whole, bare, parts := fullSnapshot(t)
	for _, v := range []any{*whole, *whole.Monitor, whole.Summary} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if rv.Field(i).IsZero() {
				t.Fatalf("fixture leaves %s.%s zero: set it in fullSnapshot, and write it in WriteSnapshot", rv.Type(), rv.Type().Field(i).Name)
			}
		}
	}
	streamed := mustStreamAsMarshal(t, "every field set", whole, bare, parts)
	members := func(raw []byte) (m map[string]json.RawMessage) {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	top := members(streamed)
	for _, c := range []struct {
		typ  reflect.Type
		keys map[string]json.RawMessage
	}{
		{reflect.TypeOf(Snapshot{}), top},
		{reflect.TypeOf(online.MonitorState{}), members(top["monitor"])},
		{reflect.TypeOf(online.Summary{}), members(top["summary"])},
	} {
		var wrote []string
		for k := range c.keys {
			wrote = append(wrote, k)
		}
		slices.Sort(wrote)
		if want := jsonNames(c.typ); !slices.Equal(wrote, want) {
			t.Errorf("%s: the stream writes %v, the struct has %v", c.typ, wrote, want)
		}
	}
}
