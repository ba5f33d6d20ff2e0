package main

// The traced run: the workload's first batches are replayed in-process,
// single-threaded, through each layer's public functions in the order the
// sink and the router make them, with a span around every call. Per-layer
// self times come from here; the live run's end-to-end numbers are always
// measured with tracing off. Spans inside vn2/sink itself are a later
// change — these are recorded from the outside, around the calls.
//
// Every layer is driven on every workload's records, whether or not the
// workload's live path crosses it: the set of per-layer metrics is the same
// everywhere, and the README's interaction table says which of them the
// live path of a workload can move.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink"
	"github.com/wsn-tools/vn2/vn2/sink/bus"
	"github.com/wsn-tools/vn2/vn2/sink/ingest"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// span is one call into a layer. Parent 0 means a root; Units is how many
// reports, states, events or epochs the call covered.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Batch  int    `json:"batch"`
	Units  int    `json:"units"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a disabled tracer records nothing, which is
// how the untraced replay of the same batches is timed.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	// drainCPU is the process CPU spent inside Monitor.Drain: its NNLS
	// workers run in parallel, so its wall time understates its cost.
	drainCPU float64
}

func (t *tracer) begin(name string, parent, batch int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Batch: batch, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id, units int) {
	if !t.on {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.spans[id-1].Units = units
}

// layerTotals is one span name's aggregate.
type layerTotals struct {
	calls int
	units int
	total time.Duration // inclusive
	self  time.Duration // total minus the time its child spans cover
}

func (t *tracer) totals() map[string]*layerTotals {
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += time.Duration(s.End - s.Start)
	}
	out := make(map[string]*layerTotals)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.calls++
		lt.units += s.Units
		lt.total += d
		lt.self += d - children[s.ID]
	}
	return out
}

// traceInput is the replayed prefix in every wire form the layers consume.
type traceInput struct {
	batches [][]trace.Record
	frames  [][]byte // delta-encoded VN2F, as a gateway's encoder emits them
	bodies  [][]byte // JSON arrays
	reports int
	encodeS float64 // client-side encode time of the workload's own wire form
	wireLen int     // bytes of the workload's own wire form
}

func newTraceInput(b *bench) (*traceInput, error) {
	in := &traceInput{}
	// Interleave the connections' batches the way they arrive.
	for i := 0; len(in.batches) < b.cfg.traceBatches; i++ {
		took := false
		for _, conn := range b.batches {
			if i < len(conn) && len(in.batches) < b.cfg.traceBatches {
				in.batches = append(in.batches, conn[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	enc := packet.NewFrameEncoder()
	for _, batch := range in.batches {
		in.reports += len(batch)
		t0 := time.Now()
		frame, _, err := encodeBody(enc, batch)
		tFrame := time.Since(t0)
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, append([]byte(nil), frame...))
		t0 = time.Now()
		body, _, err := encodeBody(nil, batch)
		tBody := time.Since(t0)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		if b.w.transport == "json" {
			in.encodeS += tBody.Seconds()
			in.wireLen += len(body)
		} else {
			in.encodeS += tFrame.Seconds()
			in.wireLen += len(frame)
		}
	}
	return in, nil
}

// drainEveryBatches is how many batches arrive per 50 ms drain tick at the
// workload's offered rate.
func (b *bench) drainEveryBatches() int {
	return max(1, int(b.w.offeredRate(b.cfg)*0.05/batchSize))
}

// replaySink drives the direct sink path call by call — what
// commitBinaryFrame and the drain loop do to a delta frame — and returns
// the monitor and the WAL bytes appended. The journal is closed on return
// so the recovery replay can reopen it.
func (b *bench) replaySink(tr *tracer, in *traceInput, walDir string, h *handlerReplay) (*online.Monitor, int, error) {
	mon, err := newReferenceMonitor(b.fx)
	if err != nil {
		return nil, 0, err
	}
	jnl, err := store.OpenJournal(walDir, nil)
	if err != nil {
		return nil, 0, err
	}
	defer jnl.Close()
	dec := ingest.NewBinaryDecoder()
	enc := packet.NewFrameEncoder()
	events := bus.New(0)
	every := b.drainEveryBatches()
	var buf []byte
	walBytes := 0
	for i, frame := range in.frames {
		root := tr.begin("sink.commit", 0, i)
		id := tr.begin("packet.ReadFrame", root, i)
		raw, err := packet.ReadFrame(bytes.NewReader(frame), buf)
		tr.end(id, len(in.batches[i]))
		if err != nil {
			return nil, 0, err
		}
		buf = raw[:0]

		id = tr.begin("ingest.BinaryDecoder.Decode", root, i)
		recs, err := dec.Decode(raw)
		tr.end(id, len(recs))
		if err != nil {
			return nil, 0, err
		}

		id = tr.begin("store.reencode", root, i)
		enc.Reset()
		for k := range recs {
			if err := enc.AddFull(recs[k].Node, recs[k].Epoch, recs[k].Vector); err != nil {
				return nil, 0, err
			}
		}
		full, err := enc.Frame()
		tr.end(id, len(recs))
		if err != nil {
			return nil, 0, err
		}
		walBytes += len(full)

		id = tr.begin("store.Journal.AppendBatch", root, i)
		_, err = jnl.AppendBatch(full)
		tr.end(id, len(recs))
		if err != nil {
			return nil, 0, err
		}

		id = tr.begin("store.Journal.Sync", root, i)
		err = jnl.Sync()
		tr.end(id, 1)
		if err != nil {
			return nil, 0, err
		}

		id = tr.begin("online.Monitor.Ingest", root, i)
		for k := range recs {
			if _, err := mon.Ingest(recs[k]); err != nil {
				return nil, 0, err
			}
		}
		tr.end(id, len(recs))

		id = tr.begin("bus.Publish", root, i)
		_, err = events.Publish(sink.EvReportAccepted, 1, map[string]int{"count": len(recs), "queue_depth": 0})
		tr.end(id, 1)
		if err != nil {
			return nil, 0, err
		}
		tr.end(root, len(recs))
		if err := h.post(tr, i, frame, len(recs)); err != nil {
			return nil, 0, err
		}

		if i%every == every-1 || i == len(in.frames)-1 {
			if err := b.replayDrain(tr, mon, events, i); err != nil {
				return nil, 0, err
			}
		}
	}
	return mon, walBytes, nil
}

// replayDrain is one drain tick: Monitor.Drain, then the same states through
// Model.DiagnoseBatch again as Drain's child span (Drain's self time is
// then the monitor's own bookkeeping), then one event per diagnosed epoch.
func (b *bench) replayDrain(tr *tracer, mon *online.Monitor, events *bus.Bus, batch int) error {
	cpu := selfCPU()
	d := tr.begin("online.Monitor.Drain", 0, batch)
	out, err := mon.Drain()
	tr.end(d, len(out))
	if tr.on {
		tr.drainCPU += selfCPU() - cpu
	}
	if err != nil || len(out) == 0 {
		return err
	}
	states := make([]trace.StateVector, len(out))
	seen := make(map[int]bool)
	var epochs []int
	for i, f := range out {
		states[i] = f.State
		if !seen[f.State.Epoch] {
			seen[f.State.Epoch] = true
			epochs = append(epochs, f.State.Epoch)
		}
	}
	id := tr.begin("vn2.Model.DiagnoseBatch", d, batch)
	_, err = b.fx.model.DiagnoseBatch(states, vn2.DiagnoseConfig{Workers: -1})
	tr.end(id, len(states))
	if err != nil {
		return err
	}
	id = tr.begin("bus.Publish", 0, batch)
	for _, e := range epochs {
		if ec, ok := mon.EpochCauses(e); ok {
			if _, err := events.Publish(sink.EvEpochDiagnosed, 1, ec); err != nil {
				return err
			}
		}
	}
	tr.end(id, len(epochs))
	return nil
}

// replayJSON drives the JSON edge's own calls: body decode and the
// per-record WAL appends with their one sync.
func replayJSON(tr *tracer, in *traceInput, walDir string, h *handlerReplay) error {
	jnl, err := store.OpenJournal(walDir, nil)
	if err != nil {
		return err
	}
	defer jnl.Close()
	for i, body := range in.bodies {
		root := tr.begin("sink.report_json", 0, i)
		id := tr.begin("ingest.Decode", root, i)
		recs, err := ingest.Decode(body)
		tr.end(id, len(recs))
		if err != nil {
			return err
		}
		id = tr.begin("store.Journal.AppendRecord", root, i)
		for _, rec := range recs {
			if _, err := jnl.AppendRecord(rec); err != nil {
				return err
			}
		}
		tr.end(id, len(recs))
		id = tr.begin("store.Journal.Sync/json", root, i)
		err = jnl.Sync()
		tr.end(id, 1)
		if err != nil {
			return err
		}
		tr.end(root, len(recs))
		if err := h.post(tr, i, body, len(recs)); err != nil {
			return err
		}
	}
	return nil
}

// inprocSink builds a real sink.Server on the run's fixtures without
// starting it; its handler and IngestQueued are driven directly.
func (b *bench) inprocSink(walDir string) (*sink.Server, error) {
	return sink.New(sink.Options{
		ModelPath:     b.fx.modelPath,
		CalibratePath: b.fx.calibPath,
		Threshold:     b.fx.det.Threshold,
		WALPath:       walDir,
		QueueSize:     8192,
	})
}

func post(h http.Handler, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code
}

// handlerReplay posts the same bodies to an in-process sink's handler — the
// whole request as the sink does it, glue included. It runs inside the
// component loop, batch by batch, so that both see the same disk: fsync
// time on a shared disk drifts by more than the glue is worth.
type handlerReplay struct {
	srv  *sink.Server
	path string
}

func (h *handlerReplay) post(tr *tracer, i int, body []byte, reports int) error {
	if h == nil {
		return nil
	}
	id := tr.begin("sink.Handler", 0, i)
	code := post(h.srv.Handler(), h.path, body)
	tr.end(id, reports)
	if code != http.StatusAccepted {
		return fmt.Errorf("in-process sink answered %d to batch %d", code, i)
	}
	h.srv.IngestQueued()
	return nil
}

// shardTransport hands the router's forwards to in-process shard handlers,
// each inside a span under the router call that caused it.
type shardTransport struct {
	tr     *tracer
	shards map[string]*sink.Server
	parent int
	batch  int
}

func (t *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin("shard.Handler", t.parent, t.batch)
	rec := httptest.NewRecorder()
	t.shards[req.URL.Host].Handler().ServeHTTP(rec, req)
	t.tr.end(id, 0)
	return rec.Result(), nil
}

// discardTransport ACKs every forward without a shard behind it.
type discardTransport struct{}

func (discardTransport) RoundTrip(*http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusAccepted)
	return rec.Result(), nil
}

// replayRouter drives the router: the whole handler over two in-process
// shards (its self time is what forwarding costs beyond the shards' own
// work), then its ring split and per-shard re-encode as standalone calls on
// the same records.
func (b *bench) replayRouter(tr *tracer, in *traceInput, dir string) error {
	const shards = 2
	st := &shardTransport{tr: tr, shards: make(map[string]*sink.Server)}
	var urls []string
	for s := 0; s < shards; s++ {
		srv, err := b.inprocSink(filepath.Join(dir, fmt.Sprintf("trace-shard%d-wal", s)))
		if err != nil {
			return err
		}
		defer srv.CloseWAL()
		host := fmt.Sprintf("shard%d", s)
		st.shards[host] = srv
		urls = append(urls, "http://"+host)
	}
	router, err := cluster.NewRouter(cluster.Config{Shards: urls, Seed: uint64(b.cfg.seed), Client: &http.Client{Transport: st}})
	if err != nil {
		return err
	}
	h := router.Handler()
	for i, frame := range in.frames {
		st.parent = tr.begin("cluster.Router.Handler", 0, i)
		st.batch = i
		code := post(h, "/report/bin", frame)
		tr.end(st.parent, len(in.batches[i]))
		if code != http.StatusAccepted {
			return fmt.Errorf("in-process router answered %d to batch %d", code, i)
		}
		for _, srv := range st.shards {
			srv.IngestQueued()
		}
	}

	ring := router.Ring()
	enc := packet.NewFrameEncoder()
	parts := make([][]trace.Record, shards)
	for i, batch := range in.batches {
		id := tr.begin("cluster.Ring.Owner", 0, i)
		for s := range parts {
			parts[s] = parts[s][:0]
		}
		for _, rec := range batch {
			s := ring.Owner(rec.Node)
			parts[s] = append(parts[s], rec)
		}
		tr.end(id, len(batch))
		id = tr.begin("cluster.reencode", 0, i)
		for _, part := range parts {
			enc.Reset()
			for _, rec := range part {
				if err := enc.AddFull(rec.Node, rec.Epoch, rec.Vector); err != nil {
					return err
				}
			}
			if _, err := enc.Frame(); err != nil {
				return err
			}
		}
		tr.end(id, len(batch))
	}
	return nil
}

// replayRecovery is what a restart does before it is ready: read the
// calibration trace, freeze the detector, load the model, and replay the
// WAL replaySink wrote through decode and Monitor.Ingest.
func (b *bench) replayRecovery(tr *tracer, walDir string) error {
	id := tr.begin("trace.ReadCSV", 0, 0)
	f, err := os.Open(b.fx.calibPath)
	if err != nil {
		return err
	}
	ds, err := trace.ReadCSV(f)
	f.Close()
	tr.end(id, 1)
	if err != nil {
		return err
	}
	id = tr.begin("trace.NewDetector", 0, 0)
	_, err = trace.NewDetector(ds.States(), 0)
	tr.end(id, 1)
	if err != nil {
		return err
	}
	id = tr.begin("vn2.Load", 0, 0)
	raw, err := os.ReadFile(b.fx.modelPath)
	if err == nil {
		_, err = vn2.Load(bytes.NewReader(raw))
	}
	tr.end(id, 1)
	if err != nil {
		return err
	}

	mon, err := newReferenceMonitor(b.fx)
	if err != nil {
		return err
	}
	jnl, err := store.OpenJournal(walDir, nil)
	if err != nil {
		return err
	}
	defer jnl.Close()
	dec := ingest.NewBinaryDecoder()
	replayed := 0
	id = tr.begin("store.Journal.Replay", 0, 0)
	err = jnl.Replay(func(_ uint64, kind store.RecordKind, inner []byte) error {
		if kind != store.KindBatch {
			return fmt.Errorf("unexpected WAL record kind %v", kind)
		}
		recs, err := dec.Decode(inner)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if _, err := mon.Ingest(rec); err != nil {
				return err
			}
		}
		replayed += len(recs)
		return nil
	})
	tr.end(id, replayed)
	return err
}

// replaySnapshot is writeSnapshot's work on the replayed monitor: export
// the state, marshal it with the model and detector, write it atomically.
func (b *bench) replaySnapshot(tr *tracer, mon *online.Monitor, path string) error {
	model, err := os.ReadFile(b.fx.modelPath)
	if err != nil {
		return err
	}
	id := tr.begin("store.snapshot", 0, 0)
	st := mon.State()
	raw, err := json.Marshal(store.Snapshot{
		Version: store.SnapshotVersion, SavedAt: time.Now().UTC(), Model: model,
		Detector: b.fx.det, Summary: mon.Snapshot(), Monitor: &st,
	})
	if err == nil {
		err = store.WriteFileAtomic(path, raw, false)
	}
	tr.end(id, 1)
	return err
}

// replayMerge times the fleet merge on the replayed monitor's retained
// epochs, split across two shards the way the ring splits them.
func replayMerge(tr *tracer, mon *online.Monitor, seed int64) {
	const shards, rounds = 2, 20
	ring := cluster.NewRing(uint64(seed), shards, 0)
	eps := mon.EpochStates()
	parts := make([][]online.EpochState, shards)
	for s := range parts {
		parts[s] = cluster.FilterOwned(ring, s, eps)
	}
	for r := 0; r < rounds; r++ {
		id := tr.begin("cluster.MergeEpochs", 0, r)
		merged := cluster.MergeEpochs(mon.Rank(), parts...)
		tr.end(id, len(merged))
	}
}

// selfCPU is the harness's own user+system CPU time so far, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// mallocsPer runs fn and returns heap allocations per unit.
func mallocsPer(units int, fn func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(units), err
}

// allocCounts measures allocations of the three hot calls on a short
// prefix, outside any timed span.
func (b *bench) allocCounts(in *traceInput, out map[string]float64) error {
	n := min(200, len(in.frames))
	reports := 0
	for _, batch := range in.batches[:n] {
		reports += len(batch)
	}
	dec := ingest.NewBinaryDecoder()
	var err error
	out["ingest.decode_bin_allocs_per_batch"], err = mallocsPer(n, func() error {
		for _, frame := range in.frames[:n] {
			if _, err := dec.Decode(frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	mon, err := newReferenceMonitor(b.fx)
	if err != nil {
		return err
	}
	out["online.ingest_allocs_per_report"], err = mallocsPer(reports, func() error {
		for _, batch := range in.batches[:n] {
			for _, rec := range batch {
				if _, err := mon.Ingest(rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(cluster.Config{
		Shards: []string{"http://shard0", "http://shard1"}, Seed: uint64(b.cfg.seed),
		Client: &http.Client{Transport: discardTransport{}},
	})
	if err != nil {
		return err
	}
	h := router.Handler()
	out["cluster.route_allocs_per_batch"], err = mallocsPer(n, func() error {
		for i, frame := range in.frames[:n] {
			if code := post(h, "/report/bin", frame); code != http.StatusAccepted {
				return fmt.Errorf("router answered %d to batch %d", code, i)
			}
		}
		return nil
	})
	return err
}

// diskSync is the median Journal.Sync after a batch-sized append on the
// work directory's own disk, whatever directory the SUT's WAL is on.
func diskSync(dir string, frame []byte) (float64, error) {
	jnl, err := store.OpenJournal(dir, nil)
	if err != nil {
		return 0, err
	}
	defer jnl.Close()
	var us []float64
	for i := 0; i < 200; i++ {
		if _, err := jnl.AppendBatch(frame); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := jnl.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}

// traceRun performs the traced replay, writes trace.json into outDir, and
// returns the per-layer metrics.
func (b *bench) traceRun(outDir string) (map[string]float64, error) {
	in, err := newTraceInput(b)
	if err != nil {
		return nil, err
	}
	walRoot := b.dir
	// The workload's own ingest edge gets the whole-handler replay beside
	// its component calls; the other edge is replayed as components only.
	replay := func(tr *tracer, tag string, srv *sink.Server) (*online.Monitor, int, error) {
		binH, jsonH := &handlerReplay{srv, "/report/bin"}, (*handlerReplay)(nil)
		if b.w.transport == "json" {
			binH, jsonH = nil, &handlerReplay{srv, "/report"}
		}
		mon, walBytes, err := b.replaySink(tr, in, filepath.Join(walRoot, tag+"-sink-wal"), binH)
		if err != nil {
			return nil, 0, err
		}
		return mon, walBytes, replayJSON(tr, in, filepath.Join(walRoot, tag+"-json-wal"), jsonH)
	}
	var srvs [2]*sink.Server
	for i, tag := range []string{"untraced", "trace"} {
		if srvs[i], err = b.inprocSink(filepath.Join(walRoot, tag+"-handler-wal")); err != nil {
			return nil, err
		}
		defer srvs[i].CloseWAL()
	}
	// The same replay untraced, then traced: the ratio of their CPU times is
	// what the spans cost (wall time would mostly compare two stretches of
	// fsync on a shared disk).
	cpu0 := selfCPU()
	if _, _, err := replay(&tracer{}, "untraced", srvs[0]); err != nil {
		return nil, err
	}
	cpu1 := selfCPU()
	tr := &tracer{on: true, t0: time.Now()}
	mon, walBytes, err := replay(tr, "trace", srvs[1])
	if err != nil {
		return nil, err
	}
	cpu2 := selfCPU()
	sinkWAL := filepath.Join(walRoot, "trace-sink-wal")
	if err := b.replayRouter(tr, in, walRoot); err != nil {
		return nil, err
	}
	if err := b.replayRecovery(tr, sinkWAL); err != nil {
		return nil, err
	}
	if err := b.replaySnapshot(tr, mon, filepath.Join(walRoot, "trace-snapshot.json")); err != nil {
		return nil, err
	}
	replayMerge(tr, mon, b.cfg.seed)

	raw, err := json.Marshal(map[string]any{
		"workload": b.w.name, "seed": b.cfg.seed, "batches": len(in.batches), "reports": in.reports, "spans": tr.spans,
	})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+b.w.name+".json"), raw, 0o644); err != nil {
		return nil, err
	}

	tot := tr.totals()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	perUnit := func(name string) float64 { return us(tot[name].self) / float64(max(1, tot[name].units)) }
	perCall := func(name string) float64 { return us(tot[name].self) / float64(tot[name].calls) }
	m := map[string]float64{
		"packet.read_frame_us_per_report":   perUnit("packet.ReadFrame"),
		"ingest.decode_bin_us_per_report":   perUnit("ingest.BinaryDecoder.Decode"),
		"store.reencode_us_per_report":      perUnit("store.reencode"),
		"store.append_batch_us_per_report":  perUnit("store.Journal.AppendBatch"),
		"store.sync_us_per_batch":           perCall("store.Journal.Sync"),
		"online.ingest_us_per_report":       perUnit("online.Monitor.Ingest"),
		"ingest.decode_json_us_per_report":  perUnit("ingest.Decode"),
		"store.append_record_us_per_report": perUnit("store.Journal.AppendRecord"),
		"online.drain_us_per_state":         us(tot["online.Monitor.Drain"].total) / float64(max(1, tot["online.Monitor.Drain"].units)),
		"nnls.solve_us_per_state":           perUnit("vn2.Model.DiagnoseBatch"),
		"bus.publish_us_per_event":          perUnit("bus.Publish"),
		"cluster.split_us_per_report":       perUnit("cluster.Ring.Owner"),
		"cluster.reencode_us_per_report":    perUnit("cluster.reencode"),
		"cluster.forward_us_per_batch":      perCall("cluster.Router.Handler"),
		"cluster.merge_us_per_epoch":        perUnit("cluster.MergeEpochs"),
		"store.replay_us_per_report":        perUnit("store.Journal.Replay"),
		"trace.read_csv_s":                  tot["trace.ReadCSV"].total.Seconds(),
		"trace.new_detector_s":              tot["trace.NewDetector"].total.Seconds(),
		"vn2.load_model_s":                  tot["vn2.Load"].total.Seconds(),
		"store.snapshot_ms":                 us(tot["store.snapshot"].total) / 1000,
		"sink.handler_us_per_batch":         perCall("sink.Handler"),
		"sink.wal_bytes_per_report":         float64(walBytes) / float64(in.reports),
		"packet.wire_bytes_per_report":      float64(in.wireLen) / float64(in.reports),
		"loadgen.encode_us_per_report":      in.encodeS * 1e6 / float64(in.reports),
		"trace.overhead_ratio":              (cpu2 - cpu1) / (cpu1 - cpu0),
		"online.flagged_share":              float64(tot["online.Monitor.Drain"].units) / float64(in.reports),
		"online.drain_cpu_us_per_state":     tr.drainCPU * 1e6 / float64(max(1, tot["online.Monitor.Drain"].units)),
	}
	// Glue is what the handler spends beyond the component calls of its own
	// path: locks, per-record queue sends, the barrier, publish, response.
	// Both sides of the difference hold one fsync, whose time on a shared
	// disk swings by more than the glue is worth, so the difference is taken
	// batch by batch and its median reported.
	components := map[string]bool{"ingest.BinaryDecoder.Decode": true, "store.reencode": true, "store.Journal.AppendBatch": true, "store.Journal.Sync": true}
	if b.w.transport == "json" {
		components = map[string]bool{"ingest.Decode": true, "store.Journal.AppendRecord": true, "store.Journal.Sync/json": true}
	}
	glue := make([]float64, len(in.batches))
	for _, sp := range tr.spans {
		switch d := us(time.Duration(sp.End - sp.Start)); {
		case sp.Name == "sink.Handler":
			glue[sp.Batch] += d
		case components[sp.Name]:
			glue[sp.Batch] -= d
		}
	}
	m["sink.glue_us_per_batch"] = median(glue)

	if err := b.allocCounts(in, m); err != nil {
		return nil, err
	}
	m["wal.sync_disk_us"], err = diskSync(filepath.Join(b.dir, "trace-disk-wal"), in.frames[0])
	return m, err
}
