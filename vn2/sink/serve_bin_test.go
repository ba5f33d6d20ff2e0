package sink

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// binFrame encodes a batch of records through the client-side frame encoder
// (deltas against enc's baselines where profitable) and returns the wire
// bytes, copied out so the encoder can be reused.
func binFrame(t *testing.T, enc *packet.FrameEncoder, recs []trace.Record) []byte {
	t.Helper()
	enc.Reset()
	for _, rec := range recs {
		if err := enc.Add(rec.Node, rec.Epoch, rec.Vector); err != nil {
			t.Fatalf("encode record: %v", err)
		}
	}
	frame, err := enc.Frame()
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	return append([]byte(nil), frame...)
}

func postBin(t *testing.T, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/report/bin", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST /report/bin: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServeBinaryEquivalence: the same report sequence delivered once as
// per-batch JSON and once as delta-encoded binary frames must leave two
// servers with bit-identical monitor state and identical diagnoses — the
// binary path is an encoding, not an approximation.
func TestServeBinaryEquivalence(t *testing.T) {
	fx := serveFixtures(t)
	srvJSON := walServer(t, fx, t.TempDir())
	srvBin := walServer(t, fx, t.TempDir())
	tsJSON := httptest.NewServer(srvJSON.Handler())
	defer tsJSON.Close()
	tsBin := httptest.NewServer(srvBin.Handler())
	defer tsBin.Close()

	nodes := fx.nodes()
	if len(nodes) < 4 {
		t.Fatalf("calibration trace has only %d nodes", len(nodes))
	}
	enc := packet.NewFrameEncoder()
	var wireBytes, fulls float64
	for epoch := 1; epoch <= 6; epoch++ {
		batch := make([]trace.Record, 4)
		for i := 0; i < 4; i++ {
			batch[i] = fx.hotReport(t, nodes[i], epoch)
		}
		if resp, body := postJSON(t, tsJSON.URL+"/report", batch); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("json report: %d %s", resp.StatusCode, body)
		}
		frame := binFrame(t, enc, batch)
		wireBytes += float64(len(frame))
		fulls += float64(enc.Fulls())
		if resp, body := postBin(t, tsBin.URL, frame); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("bin report: %d %s", resp.StatusCode, body)
		}
		srvJSON.IngestQueued()
		srvBin.IngestQueued()
		if epoch%2 == 0 {
			srvJSON.DrainTick()
			srvBin.DrainTick()
		}
	}
	if srvBin.binDec.Deltas() == 0 {
		t.Fatal("no delta records crossed the wire; the test exercised nothing")
	}
	// /status carries what an operator needs for uplink B/report and the
	// delta hit ratio, and it agrees with what the client put on the wire.
	resp, err := http.Get(tsBin.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]any
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if status["bin_bytes"] != wireBytes || status["bin_fulls"] != fulls || status["bin_records"] != 24.0 ||
		status["bin_deltas"] != 24-fulls {
		t.Fatalf("/status bin_bytes=%v bin_fulls=%v bin_records=%v bin_deltas=%v; client sent %v bytes, %v fulls of 24",
			status["bin_bytes"], status["bin_fulls"], status["bin_records"], status["bin_deltas"], wireBytes, fulls)
	}

	stJSON, _ := json.Marshal(srvJSON.MonitorState())
	stBin, _ := json.Marshal(srvBin.MonitorState())
	if !bytes.Equal(stJSON, stBin) {
		t.Fatalf("monitor state diverged between JSON and binary ingest:\n json %s\n bin  %s", stJSON, stBin)
	}
	sumJSON := srvJSON.mon.Snapshot()
	sumBin := srvBin.mon.Snapshot()
	a, _ := json.Marshal(sumJSON.Epochs)
	b, _ := json.Marshal(sumBin.Epochs)
	if !bytes.Equal(a, b) {
		t.Fatalf("diagnoses diverged:\n json %s\n bin  %s", a, b)
	}
	srvJSON.jnl.Close()
	srvBin.jnl.Close()
}

// TestServeBinaryWALRecovery: binary batches ACKed with a 202 survive
// kill -9 exactly like JSON reports — the group-commit WAL record replays
// the whole batch — and the replay re-primes the sink's delta cache, so a
// client that kept its baselines across the restart keeps sending deltas.
func TestServeBinaryWALRecovery(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nodes := fx.nodes()
	enc := packet.NewFrameEncoder()
	post := func(epoch, nodeCount int) {
		t.Helper()
		batch := make([]trace.Record, nodeCount)
		for i := 0; i < nodeCount; i++ {
			batch[i] = fx.hotReport(t, nodes[i], epoch)
		}
		if resp, body := postBin(t, ts.URL, binFrame(t, enc, batch)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("bin report: %d %s", resp.StatusCode, body)
		}
	}

	// Batch 1: ingested, diagnosed, snapshotted. Batch 2 (delta-encoded
	// against batch 1): ACKed and ingested, only the WAL knows. Batch 3:
	// ACKed but still queued at crash time.
	post(1, 4)
	srv.IngestQueued()
	srv.DrainTick()
	if err := srv.PersistSnapshot(); err != nil {
		t.Fatalf("PersistSnapshot: %v", err)
	}
	post(2, 4)
	srv.IngestQueued()
	srv.DrainTick()
	post(3, 2)
	if srv.binDec.Deltas() == 0 {
		t.Fatal("no deltas on the wire; recovery test exercised nothing")
	}

	wantStats := srv.mon.Stats()
	ts.Close()
	srv.jnl.Abort() // kill -9

	srv2 := walServer(t, fx, dir)
	defer srv2.jnl.Close()
	st := srv2.mon.Stats()
	// 8 ingested pre-crash plus the 2 queued: all ACKed reports are back.
	if got, want := st.Reports, wantStats.Reports+2; got != want {
		t.Fatalf("recovered monitor saw %d reports, want %d (stats %+v)", got, want, st)
	}
	// Replay primed the delta cache from the journaled batches.
	if srv2.binDec.Nodes() == 0 {
		t.Fatal("replay did not re-prime the sink delta cache")
	}

	// The client kept its baselines (epoch 3 for two nodes was its last
	// send): a delta frame against that state must be accepted.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	batch := []trace.Record{fx.hotReport(t, nodes[0], 4), fx.hotReport(t, nodes[1], 4)}
	before := srv2.binDec.Deltas()
	if resp, body := postBin(t, ts2.URL, binFrame(t, enc, batch)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery delta frame: %d %s", resp.StatusCode, body)
	}
	if srv2.binDec.Deltas() == before {
		t.Fatal("post-recovery frame carried no deltas; baseline continuity broken")
	}
}

// TestServeBinaryRejectAndResync: a corrupt frame and a cold-cache delta
// both 400 without advancing anything; the client-side recovery contract
// (Forget + full re-encode) then lands a 202.
func TestServeBinaryRejectAndResync(t *testing.T) {
	fx := serveFixtures(t)
	srv := walServer(t, fx, t.TempDir())
	defer srv.jnl.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nodes := fx.nodes()
	enc := packet.NewFrameEncoder()

	// Corrupt frame: flip a payload byte so the CRC fails.
	good := binFrame(t, enc, []trace.Record{fx.hotReport(t, nodes[0], 1)})
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF
	if resp, _ := postBin(t, ts.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: %d, want 400", resp.StatusCode)
	}

	// Cold-cache delta: the encoder has a baseline from the frame above,
	// but the sink never accepted it.
	delta := binFrame(t, enc, []trace.Record{fx.hotReport(t, nodes[0], 2)})
	if resp, body := postBin(t, ts.URL, delta); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cold delta: %d %s, want 400", resp.StatusCode, body)
	}
	if got := srv.binRejects.Load(); got != 2 {
		t.Fatalf("binRejects = %d, want 2", got)
	}
	if srv.received.Load() != 0 || srv.accepted.Load() != 0 {
		t.Fatal("rejected frames must not count as received/accepted")
	}

	// Client recovery: forget baselines, re-encode full, resend.
	enc.Forget()
	full := binFrame(t, enc, []trace.Record{fx.hotReport(t, nodes[0], 2)})
	if resp, body := postBin(t, ts.URL, full); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resync full frame: %d %s, want 202", resp.StatusCode, body)
	}
	// An empty frame is a bad request, not an empty ACK.
	empty := binFrame(t, enc, nil)
	if resp, _ := postBin(t, ts.URL, empty); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty frame: %d, want 400", resp.StatusCode)
	}
}
