package sink

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// viewSink is a sink with snapshots on and no loop running: the test feeds
// it through its handler and decides when it ingests and drains.
func viewSink(t testing.TB, dir string) *Server {
	t.Helper()
	fx := serveFixtures(t)
	srv, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath,
		SnapshotPath: filepath.Join(dir, "snapshot.json")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// feed posts the batches through the handler, ingesting and draining after
// each unless it is one of the last undrained, whose flagged states stay
// pending.
func feed(t testing.TB, srv *Server, batches [][]trace.Record, undrained int) {
	t.Helper()
	h := srv.Handler()
	for i, batch := range batches {
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/report", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("batch %d: %d %s", i, rec.Code, rec.Body)
		}
		srv.IngestQueued()
		if i < len(batches)-undrained {
			srv.DrainTick()
		}
	}
}

// stormSink holds a failure window's worth of state: a full 64-epoch
// history over 40 nodes, a full recent ring, drift window and
// quarantine, swap history, and a batch still pending.
func stormSink(t *testing.T, dir string) *Server {
	t.Helper()
	srv := viewSink(t, dir)
	feed(t, srv, serveFixtures(t).rampBatches(t, 70*40, 200), 1)
	at := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	srv.lc.SeedHistory([]store.SwapEvent{{Version: 1, Parent: 0, Origin: "boot", At: at}})
	st := srv.mon.State()
	if len(st.Epochs) != 64 || len(st.Pending) == 0 || len(st.Recent) != 128 || len(st.Quarantine) == 0 || len(st.Residuals) == 0 {
		t.Fatalf("not a storm: %d epochs, %d pending, %d recent, %d quarantined, %d residuals",
			len(st.Epochs), len(st.Pending), len(st.Recent), len(st.Quarantine), len(st.Residuals))
	}
	return srv
}

func getEpochs(t *testing.T, srv *Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/epochs", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /epochs: %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	return rec.Body.Bytes()
}

// mustViewAsStructs requires /epochs to be the body the handler used to
// build from structs, and the snapshot file the marshalled store.Snapshot
// (with the file's own SavedAt), byte for byte — then restarts from that
// file the way every build has (ReadSnapshot → Restore) into the same view.
func mustViewAsStructs(t *testing.T, name string, srv *Server) {
	t.Helper()
	want := httptest.NewRecorder()
	api.WriteJSON(want, http.StatusOK, map[string]any{"rank": srv.mon.Rank(), "epochs": srv.mon.EpochStates()})
	view := getEpochs(t, srv)
	if !bytes.Equal(view, want.Body.Bytes()) {
		t.Fatalf("%s: /epochs is not the struct-built body:\n got %.150s\nwant %.150s", name, view, want.Body)
	}

	if err := srv.PersistSnapshot(); err != nil {
		t.Fatalf("%s: PersistSnapshot: %v", name, err)
	}
	file, err := os.ReadFile(srv.opts.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	var head struct {
		SavedAt time.Time `json:"saved_at"`
	}
	if err := json.Unmarshal(file, &head); err != nil {
		t.Fatalf("%s: snapshot is not JSON: %v", name, err)
	}
	cur, st := srv.lc.Current(), srv.mon.State()
	oracle, err := json.Marshal(store.Snapshot{
		Version: store.SnapshotVersion, SavedAt: head.SavedAt, Model: cur.Raw, Detector: srv.det,
		Summary: srv.mon.Snapshot(), Monitor: &st, WALApplied: srv.applied.Load(),
		ModelVersion: cur.Version, Swaps: srv.lc.History(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, oracle) {
		t.Fatalf("%s: streamed snapshot (%d B) is not json.Marshal(store.Snapshot) (%d B)", name, len(file), len(oracle))
	}
	m := srv.metrics()
	if m["snapshot_bytes"] != int64(len(file)) || m["snapshot_ms"].(float64) <= 0 {
		t.Fatalf("%s: snapshot_bytes %v, snapshot_ms %v after a %d-byte snapshot", name, m["snapshot_bytes"], m["snapshot_ms"], len(file))
	}

	again, err := New(Options{SnapshotPath: srv.opts.SnapshotPath})
	if err != nil {
		t.Fatalf("%s: restart from the streamed snapshot: %v", name, err)
	}
	if got := getEpochs(t, again); !bytes.Equal(got, view) {
		t.Fatalf("%s: /epochs after a restart from the snapshot differs from before it", name)
	}
}

func TestViewAndSnapshotAreTheStructForms(t *testing.T) {
	fx := serveFixtures(t)
	mustViewAsStructs(t, "empty", viewSink(t, t.TempDir()))

	healthy := viewSink(t, t.TempDir())
	var calm []trace.Record
	for _, node := range fx.nodes() {
		rec := fx.tail[node]
		rec.Epoch++
		calm = append(calm, rec)
	}
	feed(t, healthy, append([][]trace.Record{calm}, fx.rampBatches(t, 3, 3)...), 0)
	mustViewAsStructs(t, "healthy", healthy)

	mustViewAsStructs(t, "storm", stormSink(t, t.TempDir()))
}

// maxWrite records the largest single Write it is handed.
type maxWrite struct{ max, total int }

func (w *maxWrite) Write(p []byte) (int, error) {
	w.max, w.total = max(w.max, len(p)), w.total+len(p)
	return len(p), nil
}

// TestReadPlaneCostsWhatChanged pins, without a clock, what the storm's
// resident set depends on: a view renders the epochs drained since the last
// read, not the window, and the snapshot never hands the file more than one
// array element's worth of bytes.
func TestReadPlaneCostsWhatChanged(t *testing.T) {
	fx := serveFixtures(t)
	srv := stormSink(t, t.TempDir())
	rendered := func() uint64 { return srv.metrics()["epochs_rendered"].(uint64) }
	if got := rendered(); got != 0 {
		t.Fatalf("epochs_rendered = %d before anything was read", got)
	}
	first := getEpochs(t, srv)
	if got := rendered(); got != 64 {
		t.Fatalf("the first view rendered %d epochs, want the window's 64", got)
	}
	if again := getEpochs(t, srv); !bytes.Equal(again, first) || rendered() != 64 {
		t.Fatalf("an idle second view: same body %v, epochs_rendered %d, want true and 64", bytes.Equal(again, first), rendered())
	}

	capt, err := srv.mon.Capture()
	if err != nil {
		t.Fatal(err)
	}
	var w maxWrite
	n, err := store.WriteSnapshot(&w, &store.Snapshot{Version: store.SnapshotVersion, Model: srv.lc.Current().Raw,
		Detector: srv.det, Summary: capt.Summary, Monitor: &capt.State}, capt.EpochParts)
	if err != nil || n != int64(w.total) || w.total < len(first) {
		t.Fatalf("WriteSnapshot: %d bytes reported, %d written, err %v; the view alone is %d", n, w.total, err, len(first))
	}
	if w.max > 64<<10 {
		t.Fatalf("the snapshot stream issued a %d-byte Write (of %d): more than one element was held at once", w.max, w.total)
	}
	if rendered() != 64 {
		t.Fatalf("a snapshot after a view rendered %d more epochs", rendered()-64)
	}

	// The pending batch drains into a few epochs and one more report opens
	// the next: the view after them renders those, however many are retained.
	srv.DrainTick()
	feed(t, srv, [][]trace.Record{{fx.rampReport(t, fx.nodes()[0], 71)}}, 0)
	parts := func(view []byte) map[string]bool {
		var doc struct{ Epochs []json.RawMessage }
		if err := json.Unmarshal(view, &doc); err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool, len(doc.Epochs))
		for _, e := range doc.Epochs {
			set[string(e)] = true
		}
		return set
	}
	old, changed := parts(first), 0
	for part := range parts(getEpochs(t, srv)) {
		if !old[part] {
			changed++
		}
	}
	if got := rendered() - 64; changed == 0 || changed > 16 || got != uint64(changed) {
		t.Fatalf("%d epochs changed (want a few) and the next view rendered %d", changed, got)
	}
}

// TestSnapshotIsOneInstantUnderLoad runs the real loops — ingest, woken
// drains — with four view readers, and cuts snapshots as fast as it can:
// every file must describe one instant (its summary and its monitor state
// agree on the counters and on the backlog), and every view must be whole.
// Under -race this is the read plane's concurrency test.
func TestSnapshotIsOneInstantUnderLoad(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv, base, stop := runSink(t, Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath,
		SnapshotPath: filepath.Join(dir, "snapshot.json"), SnapshotEvery: time.Hour, DrainEvery: time.Hour})
	done := make(chan struct{}) // closed when the load stops
	enough := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(base + "/epochs")
				if err != nil {
					t.Errorf("GET /epochs: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !json.Valid(body) {
					t.Errorf("GET /epochs: read err %v, valid JSON %v", err, json.Valid(body))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, batch := range fx.rampBatches(t, 8000, 4) {
			select {
			case <-enough:
				return
			default:
			}
			if resp, body := postJSON(t, base+"/report", batch); resp.StatusCode != http.StatusAccepted {
				t.Errorf("report: %d %s", resp.StatusCode, body)
				return
			}
		}
	}()
	const wantFiles = 25
	files := 0
	for running := true; running; files++ {
		select {
		case <-done:
			running = false // and one last file, of the settled state
		default:
			if files == wantFiles {
				close(enough)
			}
		}
		if err := srv.PersistSnapshot(); err != nil {
			t.Fatalf("PersistSnapshot: %v", err)
		}
		snap, err := store.ReadSnapshot(srv.opts.SnapshotPath)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap.Summary.Stats, snap.Monitor.Stats) || snap.Summary.Pending != len(snap.Monitor.Pending) ||
			len(snap.Summary.Epochs) != len(snap.Monitor.Epochs) {
			t.Fatalf("file %d holds two instants: summary %+v pending %d epochs %d, monitor %+v pending %d epochs %d", files,
				snap.Summary.Stats, snap.Summary.Pending, len(snap.Summary.Epochs),
				snap.Monitor.Stats, len(snap.Monitor.Pending), len(snap.Monitor.Epochs))
		}
	}
	wg.Wait()
	stop()
	if files < wantFiles {
		t.Fatalf("only %d snapshots were cut while the load ran, want %d", files, wantFiles)
	}
}
