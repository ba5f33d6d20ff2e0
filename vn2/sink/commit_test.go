package sink

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// walRecord is one journal record as replay sees it.
type walRecord struct {
	kind  store.RecordKind
	inner string
}

// walRecords replays the journal under dir.
func walRecords(t *testing.T, dir string) []walRecord {
	t.Helper()
	j, err := store.OpenJournal(dir, nil)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer j.Abort()
	var recs []walRecord
	err = j.Replay(func(_ uint64, kind store.RecordKind, inner []byte) error {
		recs = append(recs, walRecord{kind, string(inner)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay journal: %v", err)
	}
	return recs
}

// TestReportEdgeValidation: what the single WAL record kind makes the JSON
// edge responsible for. A record a full frame cannot represent is a 400
// naming its index (not a 202 that later fails to journal); a request with
// more records than one frame holds commits as consecutive batches; a batch
// larger than the queue itself is a 413, not a 503 to retry forever. None
// of the rejected requests leaves anything in the WAL or the queue.
func TestReportEdgeValidation(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	const queue = packet.MaxFrameRecords + 100
	srv, err := New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		WALPath:       filepath.Join(dir, "wal"),
		QueueSize:     queue,
		MaxPending:    queue, // admission also bounds a batch by the diagnosis backlog
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.CloseWAL()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := fx.hotReport(t, fx.nodes()[0], 1)
	withEpoch := func(e int) trace.Record { r := good; r.Epoch = e; return r }
	tiny := func(n int) []trace.Record {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Node: 7, Epoch: i + 1, Vector: []float64{}}
		}
		return recs
	}
	cases := []struct {
		name     string
		batch    []trace.Record
		status   int
		wantBody string // substring of the response body
		batches  uint64 // WAL records the request must append
	}{
		{"negative epoch", []trace.Record{good, withEpoch(-1)}, http.StatusBadRequest, "report 1: epoch -1", 0},
		{"epoch past u32", []trace.Record{withEpoch(math.MaxUint32 + 1)}, http.StatusBadRequest, "report 0: epoch 4294967296", 0},
		{"vector too long", []trace.Record{good, good, {Node: 1, Epoch: 1, Vector: make([]float64, packet.MaxVectorLen+1)}},
			http.StatusBadRequest, "report 2: vector of 256 metrics", 0},
		{"larger than the queue", tiny(queue + 1), http.StatusRequestEntityTooLarge, "exceeds the ingest queue", 0},
		{"more than one frame", tiny(packet.MaxFrameRecords + 5), http.StatusAccepted,
			fmt.Sprintf(`"accepted":%d`, packet.MaxFrameRecords+5), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := srv.jnl.NextLSN()
			resp, body := postJSON(t, ts.URL+"/report", c.batch)
			if resp.StatusCode != c.status || !strings.Contains(string(body), c.wantBody) {
				t.Fatalf("%d %.200s, want %d mentioning %q", resp.StatusCode, body, c.status, c.wantBody)
			}
			if got := srv.jnl.NextLSN() - before; got != c.batches {
				t.Fatalf("request appended %d WAL records, want %d", got, c.batches)
			}
			if got := srv.queue.Len(); got != int(c.batches) {
				t.Fatalf("queue holds %d items, want %d", got, c.batches)
			}
			srv.IngestQueued()
			if got, want := srv.applied.Load(), srv.jnl.NextLSN()-1; got != want {
				t.Fatalf("applied watermark %d after draining, want %d", got, want)
			}
		})
	}
}

// deltaProbe builds a frame holding one delta record for node against the
// baseline (epoch, vec): the next epoch with one metric moved. It returns
// the frame and the vector it carries.
func deltaProbe(t *testing.T, node packet.NodeID, epoch int, vec []float64) ([]byte, []float64) {
	t.Helper()
	enc := packet.NewFrameEncoder()
	if err := enc.AddFull(node, epoch, vec); err != nil { // prime the client baseline
		t.Fatal(err)
	}
	next := append([]float64(nil), vec...)
	next[0]++
	frame := binFrame(t, enc, []trace.Record{{Node: node, Epoch: epoch + 1, Vector: next}})
	var dec packet.FrameDecoder
	if recs, err := dec.Decode(frame); err != nil || len(recs) != 1 || recs[0].Kind != packet.RecDelta {
		t.Fatalf("probe for node %d is not a single delta record (err %v)", node, err)
	}
	return frame, next
}

// TestCommitOrderIsLSNOrder checks the commit point's invariant rather than
// one scripted interleaving: with JSON posters, /report/bin posters, a
// stream client, lifecycle swaps and handoff import/release all committing
// concurrently against one WAL-backed server, every item the ingest loop
// dequeues carries the next LSN (queue order is LSN order, and nothing
// appended is missing from the queue) and the applied watermark is exactly
// the last applied item's LSN. Then kill -9: a server rebuilt from the same
// WAL must agree with the live one on monitor state, serving model version,
// and the delta cache — a delta frame against each node's pre-crash
// baseline is accepted, including nodes last written over JSON.
func TestCommitOrderIsLSNOrder(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := lifecycleServer(t, fx, dir, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	streamAddr, err := srv.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	nodes := fx.nodes()
	if len(nodes) < 10 {
		t.Fatalf("calibration trace has only %d nodes", len(nodes))
	}

	// The ingest loop, instrumented.
	var applied int // items with an LSN, which must be 1, 2, 3, ...
	ingestCtx, stopIngest := context.WithCancel(context.Background())
	ingestDone := make(chan struct{})
	checkAndApply := func(q ingest.Item) {
		if wm := srv.applied.Load(); wm != uint64(applied) {
			t.Errorf("watermark %d with %d journaled items applied", wm, applied)
		}
		if q.LSN != 0 {
			if q.LSN != uint64(applied)+1 {
				t.Errorf("dequeued LSN %d after LSN %d", q.LSN, applied)
			}
			applied = int(q.LSN)
		}
		srv.ingestOne(q)
		if wm := srv.applied.Load(); wm != uint64(applied) {
			t.Errorf("watermark %d after applying LSN %d", wm, applied)
		}
	}
	go func() {
		defer close(ingestDone)
		for q, ok := srv.queue.Next(ingestCtx); ok; q, ok = srv.queue.Next(ingestCtx) {
			checkAndApply(q)
		}
	}()

	// Every producer sends the drifted regime epoch by epoch until a swap has
	// landed and some traffic followed it; lastSent remembers each node's
	// final ACKed report (the client-side delta baseline).
	const minEpochs, maxEpochs = 12, 400
	var mu sync.Mutex
	lastSent := make(map[packet.NodeID]trace.Record)
	produce := func(own []int, send func(batch []trace.Record) bool) {
		for e := 1; e <= maxEpochs; e++ {
			if e > minEpochs && srv.lc.Swaps.Load() >= 1 {
				return
			}
			batch := make([]trace.Record, len(own))
			for i, n := range own {
				batch[i] = driftReport(fx, n, e)
			}
			if !send(batch) {
				return
			}
			mu.Lock()
			for _, r := range batch {
				lastSent[r.Node] = r
			}
			mu.Unlock()
		}
	}
	// retry resends until the sink ACKs; a busy NACK is legal under load.
	retry := func(what string, attempt func() (acked, busy bool)) bool {
		for try := 0; try < 2000; try++ {
			acked, busy := attempt()
			if acked {
				return true
			}
			if !busy {
				t.Errorf("%s: refused for a reason other than backpressure", what)
				return false
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("%s: never admitted", what)
		return false
	}
	var producers sync.WaitGroup
	spawn := func(fn func()) {
		producers.Add(1)
		go func() {
			defer producers.Done()
			fn()
		}()
	}
	for _, own := range [][]int{nodes[0:2], nodes[2:4]} {
		spawn(func() {
			produce(own, func(batch []trace.Record) bool {
				return retry("json post", func() (bool, bool) {
					resp, _ := postJSON(t, ts.URL+"/report", batch)
					return resp.StatusCode == http.StatusAccepted, resp.StatusCode == http.StatusServiceUnavailable
				})
			})
		})
	}
	for _, own := range [][]int{nodes[4:6], nodes[6:8]} {
		spawn(func() {
			enc := packet.NewFrameEncoder()
			produce(own, func(batch []trace.Record) bool {
				return retry("bin post", func() (bool, bool) {
					resp, _ := postBin(t, ts.URL, binFrame(t, enc, batch))
					if resp.StatusCode != http.StatusAccepted {
						enc.Forget()
					}
					return resp.StatusCode == http.StatusAccepted, resp.StatusCode == http.StatusServiceUnavailable
				})
			})
		})
	}
	spawn(func() {
		c, err := net.Dial("tcp", streamAddr.String())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		enc := packet.NewFrameEncoder()
		produce(nodes[8:10], func(batch []trace.Record) bool {
			return retry("stream frame", func() (bool, bool) {
				if _, err := c.Write(binFrame(t, enc, batch)); err != nil {
					t.Error(err)
					return false, false
				}
				c.SetReadDeadline(time.Now().Add(10 * time.Second))
				resp, err := packet.ReadStreamResp(c, nil)
				if err != nil {
					t.Error(err)
					return false, false
				}
				if resp.Status != packet.StreamAck {
					enc.Forget()
				}
				return resp.Status == packet.StreamAck, resp.Status == packet.StreamNackBusy
			})
		})
	})
	// Handoffs: nodes from a peer shard arrive and leave again; the last one
	// stays, so the replay has an import to reproduce.
	const handoffs = 6
	spawn(func() {
		for i := 0; i < handoffs; i++ {
			id := packet.NodeID(9000 + i)
			vec := append([]float64(nil), fx.tail[nodes[0]].Vector...)
			sl := online.NodeSlice{Nodes: []online.NodeState{{Node: id, Epoch: 1, Vector: vec}}}
			ok := retry("handoff import", func() (bool, bool) {
				resp, _ := postJSON(t, ts.URL+"/handoff/import", sl)
				return resp.StatusCode == http.StatusOK, resp.StatusCode == http.StatusServiceUnavailable
			})
			if !ok || i == handoffs-1 {
				return
			}
			ok = retry("handoff release", func() (bool, bool) {
				resp, _ := postJSON(t, ts.URL+"/handoff/release", map[string][]packet.NodeID{"nodes": {id}})
				return resp.StatusCode == http.StatusOK, resp.StatusCode == http.StatusServiceUnavailable
			})
			if !ok {
				return
			}
		}
	})
	// The drain ticker: diagnosis plus the lifecycle, whose retrains each
	// tick waits out (Manager.Wait) and which commit their swap through the
	// same point.
	stopTicks := make(chan struct{})
	ticksDone := make(chan struct{})
	go func() {
		defer close(ticksDone)
		for {
			select {
			case <-stopTicks:
				return
			default:
				srv.DrainTick()
				srv.lc.Wait()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	producers.Wait()
	close(stopTicks)
	<-ticksDone
	stopIngest()
	<-ingestDone
	if err := srv.StopStream(true); err != nil {
		t.Fatalf("StopStream: %v", err)
	}
	drain := func() {
		for q, ok := srv.queue.TryNext(); ok; q, ok = srv.queue.TryNext() {
			checkAndApply(q)
		}
	}
	drain()
	if t.Failed() {
		t.FailNow()
	}
	if srv.lc.Swaps.Load() == 0 {
		t.Fatalf("no lifecycle swap under load: retrains=%d fails=%d rejects=%d",
			srv.lc.Retrains.Load(), srv.lc.RetrainFails.Load(), srv.lc.CandRejects.Load())
	}

	// Live delta-cache acceptance: the sink's cache holds every node's last
	// ACKed vector whichever transport wrote it.
	probed := make(map[packet.NodeID]trace.Record, len(lastSent))
	for node, last := range lastSent {
		frame, next := deltaProbe(t, node, last.Epoch, last.Vector)
		if out := srv.commitFrame(frame); out.status != packet.StreamAck {
			t.Fatalf("live sink refused a delta against node %d's last ACKed report: %+v", node, out)
		}
		probed[node] = trace.Record{Node: node, Epoch: last.Epoch + 1, Vector: next}
	}
	drain()
	if got, want := uint64(applied), srv.jnl.NextLSN()-1; got != want {
		t.Fatalf("ingest loop saw LSNs up to %d, journal holds %d", got, want)
	}
	if _, err := srv.mon.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Everything but the count of drain passes, which is timing, not state.
	stateOf := func(s *Server) string {
		st := s.MonitorState()
		st.Stats.Drains = 0
		return mustJSON(t, st)
	}
	liveState := stateOf(srv)
	liveVersion := srv.lc.Current().Version

	// kill -9, then rebuild from the WAL alone (no snapshot was ever cut).
	ts.Close()
	if err := srv.AbortWAL(); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[store.RecordKind]int)
	for _, r := range walRecords(t, filepath.Join(dir, "wal")) {
		kinds[r.kind]++
	}
	for _, k := range []store.RecordKind{store.KindBatch, store.KindSwap, store.KindHandoff} {
		if kinds[k] == 0 {
			t.Errorf("WAL holds no record of kind %q", byte(k))
		}
		delete(kinds, k)
	}
	if len(kinds) != 0 {
		t.Errorf("WAL holds records of other kinds: %v", kinds)
	}
	srv2 := lifecycleServer(t, fx, dir, nil)
	defer srv2.CloseWAL()
	if _, err := srv2.mon.Drain(); err != nil {
		t.Fatalf("Drain after replay: %v", err)
	}
	if got := stateOf(srv2); got != liveState {
		t.Fatalf("replayed monitor state differs from the live server's:\n live %s\n replay %s", liveState, got)
	}
	if got := srv2.lc.Current().Version; got != liveVersion || srv2.mon.ModelVersion() != liveVersion {
		t.Fatalf("replayed serving version %d (monitor %d), live %d", got, srv2.mon.ModelVersion(), liveVersion)
	}
	for node, last := range probed {
		frame, _ := deltaProbe(t, node, last.Epoch, last.Vector)
		if out := srv2.commitFrame(frame); out.status != packet.StreamAck {
			t.Fatalf("replayed sink refused a delta against node %d's pre-crash baseline: %+v", node, out)
		}
	}
}

// TestWALHoldsOneReportKind: the same reports over all three transports are
// journaled as the same fully-materialized batch records — byte for byte.
func TestWALHoldsOneReportKind(t *testing.T) {
	fx := serveFixtures(t)
	nodes := fx.nodes()
	batch := []trace.Record{fx.hotReport(t, nodes[0], 1), fx.hotReport(t, nodes[1], 1)}
	dirJSON, dirBin, dirStream := t.TempDir(), t.TempDir(), t.TempDir()
	srvJSON := walServer(t, fx, dirJSON)
	tsJSON := httptest.NewServer(srvJSON.Handler())
	if resp, body := postJSON(t, tsJSON.URL+"/report", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("json: %d %s", resp.StatusCode, body)
	}
	tsJSON.Close()
	srvJSON.CloseWAL()

	srvBin := walServer(t, fx, dirBin)
	tsBin := httptest.NewServer(srvBin.Handler())
	if resp, body := postBin(t, tsBin.URL, binFrame(t, packet.NewFrameEncoder(), batch)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bin: %d %s", resp.StatusCode, body)
	}
	tsBin.Close()
	srvBin.CloseWAL()

	srvStream, addr := streamServer(t, fx, dirStream, nil)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if resp := sendFrame(t, c, binFrame(t, packet.NewFrameEncoder(), batch)); resp.Status != packet.StreamAck {
		t.Fatalf("stream: %+v", resp)
	}
	c.Close()
	srvStream.StopStream(false)
	srvStream.CloseWAL()

	want := walRecords(t, filepath.Join(dirJSON, "wal"))
	if len(want) != 1 || want[0].kind != store.KindBatch {
		t.Fatalf("JSON request journaled %d records, want one batch", len(want))
	}
	for name, dir := range map[string]string{"bin": dirBin, "stream": dirStream} {
		got := walRecords(t, filepath.Join(dir, "wal"))
		if len(got) != 1 || got[0] != want[0] {
			t.Errorf("%s WAL differs from the JSON WAL for the same batch", name)
		}
	}
}

// TestBacklogAdmission: "ACKed" also means "will be diagnosed". With every
// report flagged and no drain running, the batch that could overflow the
// diagnosis backlog — counting what is still queued as well as what is
// pending — is refused whole on both edges, busy with a retry hint, leaving
// WAL, queue and monitor_dropped untouched; one DrainTick later it is
// accepted. The drain loop's burst rule, which IngestQueued applies inline,
// keeps a driver that never ticks clear of the bound.
func TestBacklogAdmission(t *testing.T) {
	fx := serveFixtures(t)
	srv, err := New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		WALPath:       filepath.Join(t.TempDir(), "wal"),
		QueueSize:     64,
		MaxPending:    6,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.CloseWAL()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()
	hot := func(from, to int) (recs []trace.Record) {
		for _, node := range nodes[from:to] {
			recs = append(recs, fx.hotReport(t, node, 1))
		}
		return recs
	}
	accept := func(recs []trace.Record) {
		t.Helper()
		if resp, body := postJSON(t, ts.URL+"/report", recs); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch of %d: %d %s", len(recs), resp.StatusCode, body)
		}
	}

	accept(hot(0, 4))
	srv.IngestQueued() // 4 pending
	accept(hot(4, 6))  // 4 pending + 2 queued: the backlog is spoken for
	lsn, items := srv.jnl.NextLSN(), srv.queue.Len()

	resp, body := postJSON(t, ts.URL+"/report", hot(6, 7))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		!strings.Contains(string(body), "diagnosis backlog full") {
		t.Fatalf("JSON edge: %d (Retry-After %q) %s, want 503 naming the backlog", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	out := srv.commitFrame(binFrame(t, packet.NewFrameEncoder(), hot(6, 9)))
	if out.status != packet.StreamNackBusy || out.accepted != 0 || out.retryAfter != retryAfterBusy {
		t.Fatalf("frame edge: %+v, want a busy NACK", out)
	}
	if got := srv.jnl.NextLSN(); got != lsn || srv.queue.Len() != items || srv.QueueDepth() != 2 {
		t.Errorf("refused batches left a trace: next LSN %d → %d, queue %d → %d items, depth %d", lsn, got, items, srv.queue.Len(), srv.QueueDepth())
	}
	if rej, ref := srv.rejected.Load(), srv.refusedBacklog.Load(); rej != 4 || ref != 4 {
		t.Errorf("reports_rejected=%d reports_refused_backlog=%d, want 4/4", rej, ref)
	}

	srv.IngestQueued()
	if p, d := srv.mon.Pending(), srv.mon.Stats().Dropped; p != 6 || d != 0 {
		t.Fatalf("pending=%d dropped=%d with the backlog exactly full, want 6/0", p, d)
	}
	srv.DrainTick()
	accept(hot(6, 9))
	srv.IngestQueued()
	srv.DrainTick()
	if st := srv.mon.Stats(); st.Flagged != 9 || st.Diagnosed != 9 || st.Dropped != 0 {
		t.Errorf("flagged=%d diagnosed=%d dropped=%d, want 9/9/0", st.Flagged, st.Diagnosed, st.Dropped)
	}

	// A batch no amount of draining makes room for is a 413, as for the queue.
	if resp, body := postJSON(t, ts.URL+"/report", hot(9, 16)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("batch larger than the backlog: %d %s, want 413", resp.StatusCode, body)
	}
}

// TestIngestQueuedBurstRule: IngestQueued stands in for both loops, so it
// diagnoses at drainBurst pending states as the drain loop's wake would —
// not one state earlier.
func TestIngestQueuedBurstRule(t *testing.T) {
	fx := serveFixtures(t)
	srv, err := New(Options{ModelPath: fx.modelPath, CalibratePath: fx.tracePath, QueueSize: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var recs []trace.Record
	for _, b := range fx.rampBatches(t, drainBurst, drainBurst) {
		recs = append(recs, b...)
	}
	for _, part := range [][]trace.Record{recs[:drainBurst-1], recs[drainBurst-1:]} {
		if resp, body := postJSON(t, ts.URL+"/report", part); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch of %d: %d %s", len(part), resp.StatusCode, body)
		}
		srv.IngestQueued()
		want := uint64(0)
		if len(part) == 1 {
			want = drainBurst
		}
		if got := srv.mon.Stats().Diagnosed; got != want {
			t.Fatalf("after %d more flagged reports: %d diagnosed, want %d", len(part), got, want)
		}
	}
	if w, k := srv.drainsWoken.Load(), srv.drainsTicked.Load(); w != 1 || k != 0 {
		t.Errorf("drains_woken=%d drains_ticked=%d, want 1/0", w, k)
	}
}
