package sink

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
)

// handoffSink is one WAL-backed sink driven synchronously, with a pump
// goroutine standing in for the ingest loop: the handoff handlers block on
// queue barriers, so SOMETHING must drain the queue while the HTTP call is
// in flight.
type handoffSink struct {
	srv  *Server
	ts   *httptest.Server
	stop func()
}

func startHandoffSink(t *testing.T, dir string) *handoffSink {
	t.Helper()
	fx := serveFixtures(t)
	srv, err := New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		WALPath:       filepath.Join(dir, "wal"),
		QueueSize:     256,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	var done atomic.Bool
	go func() {
		for !done.Load() {
			srv.IngestQueued()
			time.Sleep(time.Millisecond)
		}
	}()
	h := &handoffSink{srv: srv, ts: ts, stop: func() { done.Store(true); ts.Close() }}
	t.Cleanup(h.stop)
	return h
}

func monitorNodes(st online.MonitorState) map[packet.NodeID]int {
	out := make(map[packet.NodeID]int)
	for _, ns := range st.Nodes {
		out[ns.Node] = ns.Epoch
	}
	return out
}

// TestHandoffMoveNodes: the full three-step protocol between two live
// WAL-backed sinks — exported state lands on the target (baselines AND
// epoch contributions), the source forgets the nodes, a follow-up report
// for a moved node diffs against the imported baseline instead of
// counting as a first report, and BOTH sides reproduce their post-move
// state from a kill -9 WAL replay (the KindHandoff records).
func TestHandoffMoveNodes(t *testing.T) {
	fx := serveFixtures(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	a := startHandoffSink(t, dirA)
	b := startHandoffSink(t, dirB)

	nodes := fx.nodes()
	if len(nodes) < 3 {
		t.Fatalf("calibration trace has only %d nodes", len(nodes))
	}
	moved, kept := nodes[0], nodes[1]

	// Warm sink A with flagged reports for both nodes and diagnose them.
	for _, n := range []int{moved, kept} {
		resp, body := postJSON(t, a.ts.URL+"/report", fx.hotReport(t, n, 1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report node %d: %d %s", n, resp.StatusCode, body)
		}
	}
	waitIngested(t, a.srv, 2)
	a.srv.DrainTick()

	before := a.srv.MonitorState()
	if len(before.Epochs) == 0 {
		t.Fatal("nothing diagnosed before the move")
	}

	if err := cluster.MoveNodes(nil, a.ts.URL, b.ts.URL, []packet.NodeID{packet.NodeID(moved)}); err != nil {
		t.Fatalf("MoveNodes: %v", err)
	}

	stA, stB := a.srv.MonitorState(), b.srv.MonitorState()
	if _, ok := monitorNodes(stA)[packet.NodeID(moved)]; ok {
		t.Fatal("source still holds the moved node's baseline")
	}
	if _, ok := monitorNodes(stA)[packet.NodeID(kept)]; !ok {
		t.Fatal("source dropped a node it still owns")
	}
	epochB, ok := monitorNodes(stB)[packet.NodeID(moved)]
	if !ok {
		t.Fatal("target did not receive the moved node's baseline")
	}
	foundContrib := false
	for _, es := range stB.Epochs {
		for _, c := range es.Contribs {
			if c.Node == packet.NodeID(moved) {
				foundContrib = true
			}
			if c.Node == packet.NodeID(kept) {
				t.Fatal("target received a contribution for an unmoved node")
			}
		}
	}
	if !foundContrib {
		t.Fatal("target did not receive the moved node's epoch contribution")
	}

	// A follow-up report continues the stream on the target: it must diff
	// against the imported baseline, not count as a first report.
	firstsBefore := b.srv.MonitorState().Stats.FirstReports
	resp, body := postJSON(t, b.ts.URL+"/report", fx.hotReport(t, moved, 2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("follow-up report: %d %s", resp.StatusCode, body)
	}
	waitIngested(t, b.srv, 1)
	after := b.srv.MonitorState()
	if after.Stats.FirstReports != firstsBefore {
		t.Fatal("follow-up report on the target counted as a first report — imported baseline unused")
	}
	if got := monitorNodes(after)[packet.NodeID(moved)]; got <= epochB {
		t.Fatalf("moved node's epoch did not advance on the target: %d <= %d", got, epochB)
	}

	// kill -9 both sides: the import must come back from B's WAL
	// (KindHandoff "in"), the release from A's ("out").
	a.stop()
	b.stop()
	if err := a.srv.AbortWAL(); err != nil {
		t.Fatal(err)
	}
	if err := b.srv.AbortWAL(); err != nil {
		t.Fatal(err)
	}
	a2 := startHandoffSink(t, dirA)
	b2 := startHandoffSink(t, dirB)
	stA2, stB2 := a2.srv.MonitorState(), b2.srv.MonitorState()
	if _, ok := monitorNodes(stA2)[packet.NodeID(moved)]; ok {
		t.Fatal("WAL replay resurrected the released node on the source")
	}
	if _, ok := monitorNodes(stB2)[packet.NodeID(moved)]; !ok {
		t.Fatal("WAL replay lost the imported node on the target")
	}
}

// TestHandoffImportValidates: a slice that does not fit the serving model
// is rejected with a 400 BEFORE anything is journaled — it must not
// become a WAL record that poisons every replay.
func TestHandoffImportValidates(t *testing.T) {
	b := startHandoffSink(t, t.TempDir())
	before := monitorNodes(b.srv.MonitorState())
	bad := online.NodeSlice{
		Nodes: []online.NodeState{{Node: 9999, Epoch: 1, Vector: []float64{1}}}, // wrong metric count
	}
	raw, _ := json.Marshal(bad)
	resp, body := postJSON(t, b.ts.URL+"/handoff/import", json.RawMessage(raw))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad slice import: %d %s", resp.StatusCode, body)
	}
	after := monitorNodes(b.srv.MonitorState())
	if len(after) != len(before) {
		t.Fatalf("rejected import mutated the monitor: %d nodes -> %d", len(before), len(after))
	}
	if _, ok := after[9999]; ok {
		t.Fatal("rejected import installed the bad baseline")
	}
}

// waitIngested waits until the pump has drained n queued reports.
func waitIngested(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	waitFor(t, 5*time.Second, "the pump to ingest the queued reports", func() bool { return srv.ingested.Load() >= n })
}

// TestHandoffImportAdmission: an import's pending states count against the
// diagnosis backlog like reports do. With MaxPending 8 an import carrying 5
// pending states sits queued (it weighs 1); a 6-report flagged batch —
// 1 + 5 + 6 > 8 — is refused 503 with Retry-After 1 and nothing journaled,
// where admission without the import's states ACKed it and then dropped 3 of
// its states. A second import that would overflow is refused the same way,
// one that alone exceeds MaxPending is a 413, and monitor_dropped stays 0.
func TestHandoffImportAdmission(t *testing.T) {
	fx := serveFixtures(t)
	nodes := fx.nodes()
	hot := func(ns []int) (recs []trace.Record) {
		for _, n := range ns {
			recs = append(recs, fx.hotReport(t, n, 1))
		}
		return recs
	}
	ids := func(ns []int) (out []packet.NodeID) {
		for _, n := range ns {
			out = append(out, packet.NodeID(n))
		}
		return out
	}
	peer, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath})
	if err != nil {
		t.Fatalf("New peer: %v", err)
	}
	if out := peer.commit(func() ([]trace.Record, *ingest.Arena, error) { return hot(nodes[:9]), nil, nil }); out.status != packet.StreamAck {
		t.Fatalf("peer batch: %+v", out)
	}
	peer.IngestQueued()
	five, nine := peer.mon.ExportNodes(ids(nodes[:5])), peer.mon.ExportNodes(ids(nodes[:9]))
	if len(five.Pending) != 5 || len(nine.Pending) != 9 {
		t.Fatalf("peer slices carry %d and %d pending states, want 5 and 9", len(five.Pending), len(nine.Pending))
	}

	srv, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath,
		WALPath: filepath.Join(t.TempDir(), "wal"), QueueSize: 64, MaxPending: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.CloseWAL()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	refused := func(what, path string, body any, code int) {
		t.Helper()
		lsn := srv.jnl.NextLSN()
		resp, msg := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != code || (code == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "1") {
			t.Fatalf("%s: %d (Retry-After %q) %s, want %d", what, resp.StatusCode, resp.Header.Get("Retry-After"), msg, code)
		}
		if srv.jnl.NextLSN() != lsn {
			t.Fatalf("%s: refused, yet journaled", what)
		}
	}
	dropped := func(when string) {
		t.Helper()
		if d := srv.mon.Stats().Dropped; d != 0 {
			t.Fatalf("%s: monitor_dropped %d", when, d)
		}
	}

	refused("import of 9 pending states", "/handoff/import", nine, http.StatusRequestEntityTooLarge)
	raw, _ := json.Marshal(five)
	imported := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/handoff/import", "application/json", bytes.NewReader(raw))
		if err != nil {
			imported <- 0
			return
		}
		resp.Body.Close()
		imported <- resp.StatusCode
	}()
	waitFor(t, 5*time.Second, "the import to queue", func() bool { return srv.QueueDepth() == 1 })
	refused("6 flagged reports behind a queued import", "/report", hot(nodes[10:16]), http.StatusServiceUnavailable)
	dropped("batch refused")
	srv.IngestQueued()
	if code := <-imported; code != http.StatusOK {
		t.Fatalf("import: %d", code)
	}
	if p := srv.mon.Pending(); p != 5 {
		t.Fatalf("pending %d after the import, want 5", p)
	}
	refused("a second import of 5", "/handoff/import", five, http.StatusServiceUnavailable)
	if resp, body := postJSON(t, ts.URL+"/report", hot(nodes[10:13])); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("3 reports into the 3 free slots: %d %s", resp.StatusCode, body)
	}
	srv.IngestQueued()
	if p := srv.mon.Pending(); p != 8 {
		t.Fatalf("pending %d, want the backlog exactly full at 8", p)
	}
	dropped("backlog full")
	srv.DrainTick()
	if p := srv.mon.Pending(); p != 0 {
		t.Fatalf("pending %d after a drain", p)
	}
	dropped("drained")
}

// TestDrainWokenByHandoffImport: a handoff import's pending states do not
// wait for the tick when no report follows them — the import's barrier is an
// item like any other, and the ingest loop wakes the drain loop after it.
func TestDrainWokenByHandoffImport(t *testing.T) {
	fx := serveFixtures(t)
	nodes := fx.nodes()[:5]
	peer, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath})
	if err != nil {
		t.Fatalf("New peer: %v", err)
	}
	var hot []trace.Record
	var ids []packet.NodeID
	for _, n := range nodes {
		hot, ids = append(hot, fx.hotReport(t, n, 1)), append(ids, packet.NodeID(n))
	}
	if out := peer.commit(func() ([]trace.Record, *ingest.Arena, error) { return hot, nil, nil }); out.status != packet.StreamAck {
		t.Fatalf("peer batch: %+v", out)
	}
	peer.IngestQueued()
	slice := peer.mon.ExportNodes(ids)
	if len(slice.Pending) != len(nodes) {
		t.Fatalf("slice carries %d pending states, want %d", len(slice.Pending), len(nodes))
	}

	srv, base, stop := runSink(t, Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath,
		WALPath: filepath.Join(t.TempDir(), "wal"), DrainEvery: time.Hour})
	defer stop()
	if resp, body := postJSON(t, base+"/handoff/import", slice); resp.StatusCode != http.StatusOK {
		t.Fatalf("import: %d %s", resp.StatusCode, body)
	}
	waitFor(t, 5*time.Second, "a woken pass", func() bool { return srv.drainsWoken.Load() == 1 })
	if st, k := srv.mon.Stats(), srv.drainsTicked.Load(); st.Diagnosed != uint64(len(nodes)) || srv.mon.Pending() != 0 || k != 0 {
		t.Errorf("diagnosed %d, pending %d, drains_ticked %d, want %d, 0, 0", st.Diagnosed, srv.mon.Pending(), k, len(nodes))
	}
}
