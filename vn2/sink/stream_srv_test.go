package sink

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
)

// mustJSON marshals v for bit-exact state comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// streamServer builds a WAL-backed server with fast stream timeouts and a
// live stream listener, returning the server and the listener address.
func streamServer(t *testing.T, fx fixtures, dir string, opt func(*Options)) (*Server, string) {
	t.Helper()
	o := Options{
		ModelPath:         fx.modelPath,
		CalibratePath:     fx.tracePath,
		SnapshotPath:      filepath.Join(dir, "snapshot.json"),
		WALPath:           filepath.Join(dir, "wal"),
		QueueSize:         256,
		Sleep:             noSleep,
		StreamReadTimeout: 500 * time.Millisecond,
	}
	if opt != nil {
		opt(&o)
	}
	srv, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := srv.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	t.Cleanup(func() {
		srv.StopStream(false)
		srv.CloseWAL()
	})
	return srv, addr.String()
}

// sendFrame writes one frame and reads the response off the conn.
func sendFrame(t *testing.T, c net.Conn, frame []byte) packet.StreamResp {
	t.Helper()
	if _, err := c.Write(frame); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := packet.ReadStreamResp(c, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp
}

// TestStreamAckEquivalence: the same hot reports delivered over the
// persistent stream and over POST /report/bin leave two servers with
// bit-identical monitor state — the stream is a transport, not a different
// ingest path.
func TestStreamAckEquivalence(t *testing.T) {
	fx := serveFixtures(t)
	srvStream, addr := streamServer(t, fx, t.TempDir(), nil)
	srvHTTP := walServer(t, fx, t.TempDir())
	defer srvHTTP.CloseWAL()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nodes := fx.nodes()
	encStream := packet.NewFrameEncoder()
	encHTTP := packet.NewFrameEncoder()
	for epoch := 1; epoch <= 6; epoch++ {
		batch := make([]trace.Record, 4)
		for i := 0; i < 4; i++ {
			batch[i] = fx.hotReport(t, nodes[i], epoch)
		}
		frame := binFrame(t, encStream, batch)
		resp := sendFrame(t, c, frame)
		if resp.Status != packet.StreamAck || resp.Accepted != len(batch) {
			t.Fatalf("epoch %d: resp %+v, want ack of %d", epoch, resp, len(batch))
		}
		out := srvHTTP.commitFrame(binFrame(t, encHTTP, batch))
		if out.status != packet.StreamAck {
			t.Fatalf("http-path commit: %+v", out)
		}
		srvStream.IngestQueued()
		srvHTTP.IngestQueued()
		srvStream.DrainTick()
		srvHTTP.DrainTick()
	}
	a, b := srvStream.MonitorState(), srvHTTP.MonitorState()
	aj, bj := mustJSON(t, a), mustJSON(t, b)
	if aj != bj {
		t.Fatalf("stream and bin-HTTP state diverged:\n%s\nvs\n%s", aj, bj)
	}
	if srvStream.streamFrames.Load() != 6 || srvStream.streamNacks.Load() != 0 {
		t.Fatalf("stream counters: frames %d nacks %d", srvStream.streamFrames.Load(), srvStream.streamNacks.Load())
	}
	if srvStream.StreamConns() != 1 {
		t.Fatalf("StreamConns = %d, want 1", srvStream.StreamConns())
	}
}

// TestStreamCorruptFrameNackContinues: a payload bit-flip is caught by the
// CRC, NACKed as bad-frame WITHOUT advancing the delta cache, and the
// connection stays usable — the client resyncs by resending full-encoded on
// the same conn.
func TestStreamCorruptFrameNackContinues(t *testing.T) {
	fx := serveFixtures(t)
	srv, addr := streamServer(t, fx, t.TempDir(), nil)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nodes := fx.nodes()
	enc := packet.NewFrameEncoder()
	base := []trace.Record{fx.hotReport(t, nodes[0], 1)}
	if resp := sendFrame(t, c, binFrame(t, enc, base)); resp.Status != packet.StreamAck {
		t.Fatalf("seed frame: %+v", resp)
	}

	next := []trace.Record{fx.hotReport(t, nodes[0], 2)}
	frame := binFrame(t, enc, next)
	frame[len(frame)-1] ^= 0xFF // corrupt one payload byte → CRC mismatch
	if resp := sendFrame(t, c, frame); resp.Status != packet.StreamNackBad {
		t.Fatalf("corrupt frame: %+v, want nack-bad", resp)
	}

	// Per protocol: Forget and resend full on the same connection.
	enc.Forget()
	enc.Reset()
	for _, rec := range next {
		if err := enc.AddFull(rec.Node, rec.Epoch, rec.Vector); err != nil {
			t.Fatal(err)
		}
	}
	full, err := enc.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if resp := sendFrame(t, c, append([]byte(nil), full...)); resp.Status != packet.StreamAck {
		t.Fatalf("full resend: %+v, want ack", resp)
	}
	srv.IngestQueued()
	if got := srv.mon.Stats().Reports; got != 2 {
		t.Fatalf("monitor saw %d reports, want 2 (corrupt frame must commit nothing)", got)
	}
	if srv.streamNacks.Load() != 1 {
		t.Fatalf("stream_nacks = %d, want 1", srv.streamNacks.Load())
	}
}

// TestStreamSlowlorisDisconnected: a peer that sends a few header bytes and
// stalls is cut off by the per-frame read deadline; nothing is committed and
// the connection slot frees up.
func TestStreamSlowlorisDisconnected(t *testing.T) {
	fx := serveFixtures(t)
	srv, addr := streamServer(t, fx, t.TempDir(), nil)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(packet.FramePreamble)); err != nil { // 6 of 16 header bytes, then stall
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("expected clean EOF after the sink's read deadline, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.StreamConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slowloris conn still registered after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.mon.Stats().Reports; got != 0 {
		t.Fatalf("monitor saw %d reports from a torn header", got)
	}
}

// TestStreamTornFrameClosesConn: a header that promises more payload than
// ever arrives (the mid-frame cut) times out and closes the connection with
// nothing committed — frame boundaries cannot be trusted after a tear.
func TestStreamTornFrameClosesConn(t *testing.T) {
	fx := serveFixtures(t)
	srv, addr := streamServer(t, fx, t.TempDir(), nil)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	enc := packet.NewFrameEncoder()
	frame := binFrame(t, enc, []trace.Record{fx.hotReport(t, fx.nodes()[0], 1)})
	if _, err := c.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("expected EOF, got %v", err)
	}
	srv.IngestQueued()
	if got := srv.mon.Stats().Reports; got != 0 {
		t.Fatalf("monitor saw %d reports from a torn frame", got)
	}
}

// TestStreamConnCap: connections beyond StreamMaxConns get one
// nack-unavailable response and a close; existing connections are
// unaffected.
func TestStreamConnCap(t *testing.T) {
	fx := serveFixtures(t)
	srv, addr := streamServer(t, fx, t.TempDir(), func(o *Options) { o.StreamMaxConns = 1 })

	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	enc := packet.NewFrameEncoder()
	if resp := sendFrame(t, c1, binFrame(t, enc, []trace.Record{fx.hotReport(t, fx.nodes()[0], 1)})); resp.Status != packet.StreamAck {
		t.Fatalf("first conn: %+v", resp)
	}

	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := packet.ReadStreamResp(c2, nil)
	if err != nil {
		t.Fatalf("over-cap conn: %v", err)
	}
	if resp.Status != packet.StreamNackUnavailable {
		t.Fatalf("over-cap conn got %+v, want nack-unavailable", resp)
	}
	if _, err := io.ReadAll(c2); err != nil {
		t.Fatalf("over-cap conn should be closed: %v", err)
	}
	if srv.streamRejects.Load() != 1 {
		t.Fatalf("stream_conns_rejected = %d, want 1", srv.streamRejects.Load())
	}
	// The surviving connection still works.
	if resp := sendFrame(t, c1, binFrame(t, enc, []trace.Record{fx.hotReport(t, fx.nodes()[0], 2)})); resp.Status != packet.StreamAck {
		t.Fatalf("first conn after reject: %+v", resp)
	}
}

// TestStreamBackpressureNack: a frame the ingest queue has no room for is
// NACKed busy whole — nothing accepted, nothing queued, nothing journaled —
// and the same frame resent full-encoded once the queue drained is ACKed.
func TestStreamBackpressureNack(t *testing.T) {
	fx := serveFixtures(t)
	srv, addr := streamServer(t, fx, t.TempDir(), func(o *Options) { o.QueueSize = 4 })
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nodes := fx.nodes()
	if len(nodes) < 6 {
		t.Fatalf("need 6 nodes, have %d", len(nodes))
	}
	batchOf := func(from, to int) []trace.Record {
		batch := make([]trace.Record, 0, to-from)
		for _, node := range nodes[from:to] {
			batch = append(batch, fx.hotReport(t, node, 1))
		}
		return batch
	}
	enc := packet.NewFrameEncoder()
	if resp := sendFrame(t, c, binFrame(t, enc, batchOf(0, 3))); resp.Status != packet.StreamAck || resp.Accepted != 3 {
		t.Fatalf("first frame: %+v, want ack of 3", resp)
	}
	lsnBefore := srv.jnl.NextLSN()

	// Three more do not fit the remaining room of one.
	resp := sendFrame(t, c, binFrame(t, enc, batchOf(3, 6)))
	if resp.Status != packet.StreamNackBusy || resp.Accepted != 0 || resp.RetryAfter == 0 {
		t.Fatalf("resp %+v, want nack-busy accepting nothing, with a retry hint", resp)
	}
	if srv.QueueDepth() != 3 || srv.queue.Len() != 1 {
		t.Fatalf("queue depth %d reports in %d items, want 3 in 1", srv.QueueDepth(), srv.queue.Len())
	}
	if got := srv.jnl.NextLSN(); got != lsnBefore {
		t.Fatalf("shed frame was journaled: next LSN %d → %d", lsnBefore, got)
	}
	if srv.rejected.Load() != 3 {
		t.Fatalf("rejected = %d, want 3", srv.rejected.Load())
	}

	// The client's recovery: queue drains, Forget, resend full.
	srv.IngestQueued()
	enc.Forget()
	if resp := sendFrame(t, c, binFrame(t, enc, batchOf(3, 6))); resp.Status != packet.StreamAck || resp.Accepted != 3 {
		t.Fatalf("resend after drain: %+v, want ack of 3", resp)
	}

	// A frame larger than the queue itself can never be admitted: NACK bad,
	// not a busy the client would retry forever.
	enc.Forget()
	if resp := sendFrame(t, c, binFrame(t, enc, batchOf(0, 5))); resp.Status != packet.StreamNackBad {
		t.Fatalf("over-capacity frame: %+v, want nack-bad", resp)
	}
}

// TestStreamGracefulDrain: StopStream(true) lets the peer observe a clean
// EOF (no torn response) and a second StartStream brings the edge back.
func TestStreamGracefulDrain(t *testing.T) {
	fx := serveFixtures(t)
	srv, addr := streamServer(t, fx, t.TempDir(), nil)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := packet.NewFrameEncoder()
	if resp := sendFrame(t, c, binFrame(t, enc, []trace.Record{fx.hotReport(t, fx.nodes()[0], 1)})); resp.Status != packet.StreamAck {
		t.Fatalf("pre-drain frame: %+v", resp)
	}
	if err := srv.StopStream(true); err != nil {
		t.Fatalf("StopStream: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("drained conn: want clean EOF, got %v", err)
	}
	addr2, err := srv.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart stream: %v", err)
	}
	c2, err := net.Dial("tcp", addr2.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	enc.Forget() // new conn, assume nothing about the sink's cache
	if resp := sendFrame(t, c2, binFrame(t, enc, []trace.Record{fx.hotReport(t, fx.nodes()[0], 2)})); resp.Status != packet.StreamAck {
		t.Fatalf("post-restart frame: %+v", resp)
	}
}

// TestStreamBadMagicClosesConn: garbage where a header should be is fatal
// for the connection (no resync on a byte stream), and commits nothing.
func TestStreamBadMagicClosesConn(t *testing.T) {
	fx := serveFixtures(t)
	srv, addr := streamServer(t, fx, t.TempDir(), nil)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	junk := make([]byte, 64)
	binary.BigEndian.PutUint32(junk, 0xDEADBEEF)
	if _, err := c.Write(junk); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("want clean close, got %v", err)
	}
	if got := srv.mon.Stats().Reports; got != 0 {
		t.Fatalf("monitor saw %d reports from junk", got)
	}
}
