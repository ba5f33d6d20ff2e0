package sink

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseEvent is one parsed SSE frame from GET /stream.
type sseEvent struct {
	ID   uint64
	Type string
	Data string
}

// sseClient is a live /stream connection whose frames are parsed on a
// background goroutine and delivered over Events.
type sseClient struct {
	resp   *http.Response
	Events chan sseEvent
	// Opening holds the ": stream next_seq=N" comment's N.
	Opening uint64
}

// dialStream opens GET /stream, optionally resuming after lastID, and
// returns once the opening comment (which flushes the headers) is read.
func dialStream(t *testing.T, url string, lastID uint64) *sseClient {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("GET /stream: Content-Type %q", ct)
	}
	c := &sseClient{resp: resp, Events: make(chan sseEvent, 256)}
	opened := make(chan uint64, 1)
	go func() {
		defer close(c.Events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, ": stream next_seq="):
				n, _ := strconv.ParseUint(strings.TrimPrefix(line, ": stream next_seq="), 10, 64)
				select {
				case opened <- n:
				default:
				}
			case strings.HasPrefix(line, ":"):
				// heartbeat comment
			case strings.HasPrefix(line, "id: "):
				ev.ID, _ = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			case strings.HasPrefix(line, "event: "):
				ev.Type = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.Data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if ev.Type != "" || ev.Data != "" {
					c.Events <- ev
				}
				ev = sseEvent{}
			}
		}
	}()
	select {
	case c.Opening = <-opened:
	case <-time.After(5 * time.Second):
		resp.Body.Close()
		t.Fatal("/stream never sent its opening comment")
	}
	return c
}

func (c *sseClient) Close() { c.resp.Body.Close() }

// next blocks for the next frame of the given type (any type if typ is
// empty), failing the test on timeout.
func (c *sseClient) next(t *testing.T, typ string, timeout time.Duration) sseEvent {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-c.Events:
			if !ok {
				t.Fatalf("stream closed while waiting for %q", typ)
			}
			if typ == "" || ev.Type == typ {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %q event within %s", typ, timeout)
		}
	}
}

// TestStreamEndToEnd: the acceptance path for the visibility plane. A live
// /stream subscriber sees ReportAccepted on ingest, EpochDiagnosed +
// DriftStats after a drain, and ModelSwapped when a lifecycle hot-swap is
// applied — all with strictly increasing event ids.
func TestStreamEndToEnd(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := lifecycleServer(t, fx, dir, nil)
	defer srv.jnl.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()[:4]

	c := dialStream(t, ts.URL, 0)
	defer c.Close()

	// Ingest + drain: ReportAccepted then EpochDiagnosed then DriftStats.
	postEpochs(t, srv, ts.URL, fx, driftReport, nodes, 1, 3)
	ra := c.next(t, EvReportAccepted, 5*time.Second)
	var rap struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(ra.Data), &rap); err != nil || rap.Count != len(nodes) {
		t.Fatalf("ReportAccepted payload %q: err=%v count=%d want %d", ra.Data, err, rap.Count, len(nodes))
	}
	tick(srv) // diagnoses + fires the lifecycle trigger (swap barrier queued)
	ed := c.next(t, EvEpochDiagnosed, 5*time.Second)
	var edp struct {
		Epoch  int                `json:"epoch"`
		States int                `json:"states"`
		Causes map[string]float64 `json:"causes"`
	}
	if err := json.Unmarshal([]byte(ed.Data), &edp); err != nil {
		t.Fatalf("EpochDiagnosed payload %q: %v", ed.Data, err)
	}
	if edp.States == 0 {
		t.Fatalf("EpochDiagnosed with zero states: %q", ed.Data)
	}
	ds := c.next(t, EvDriftStats, 5*time.Second)
	var dsp driftEvent
	if err := json.Unmarshal([]byte(ds.Data), &dsp); err != nil {
		t.Fatalf("DriftStats payload %q: %v", ds.Data, err)
	}
	if dsp.Window == 0 || dsp.ModelVersion != 1 {
		t.Fatalf("DriftStats before swap: %+v", dsp)
	}

	// Consume the swap barrier: the hot-swap applies and must stream.
	ingestAll(srv)
	sw := c.next(t, EvModelSwapped, 5*time.Second)
	var swp struct {
		Version uint64 `json:"version"`
		Parent  uint64 `json:"parent"`
		Origin  string `json:"origin"`
	}
	if err := json.Unmarshal([]byte(sw.Data), &swp); err != nil {
		t.Fatalf("ModelSwapped payload %q: %v", sw.Data, err)
	}
	if swp.Version != 2 || swp.Parent != 1 || swp.Origin != "update" {
		t.Fatalf("ModelSwapped = %+v, want v2 from v1 via update", swp)
	}

	// ids are the bus sequence: strictly increasing across everything seen.
	if !(ra.ID < ed.ID && ed.ID < ds.ID && ds.ID < sw.ID) {
		t.Errorf("event ids not increasing: %d %d %d %d", ra.ID, ed.ID, ds.ID, sw.ID)
	}
}

// TestStreamResume: a reconnecting client presenting Last-Event-ID receives
// exactly the events it missed — no gaps, no duplicates — as long as the
// bus journal still holds them.
func TestStreamResume(t *testing.T) {
	fx := serveFixtures(t)
	srv, err := New(Options{
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		QueueSize:     256,
		Sleep:         noSleep,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()

	// First connection sees the first batch.
	c1 := dialStream(t, ts.URL, 0)
	resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, nodes[0], 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	first := c1.next(t, EvReportAccepted, 5*time.Second)
	c1.Close() // drop the connection mid-stream

	// Events published while nobody is connected.
	var missed []uint64
	for i := 1; i <= 3; i++ {
		resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, nodes[i], 1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("offline report %d: %d %s", i, resp.StatusCode, body)
		}
		missed = append(missed, first.ID+uint64(i))
	}

	// Resume from the last id the first connection saw: the journal replays
	// the three missed events in order, each exactly once.
	c2 := dialStream(t, ts.URL, first.ID)
	defer c2.Close()
	for _, want := range missed {
		ev := c2.next(t, EvReportAccepted, 5*time.Second)
		if ev.ID != want {
			t.Fatalf("resumed event id = %d, want %d (gap or duplicate)", ev.ID, want)
		}
	}

	// Live events keep flowing on the resumed connection with no seam.
	resp, body = postJSON(t, ts.URL+"/report", fx.hotReport(t, nodes[4], 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("live report: %d %s", resp.StatusCode, body)
	}
	if ev := c2.next(t, EvReportAccepted, 5*time.Second); ev.ID != missed[len(missed)-1]+1 {
		t.Fatalf("post-resume live event id = %d, want %d", ev.ID, missed[len(missed)-1]+1)
	}
}

// TestStreamConcurrentOrdering is the visibility plane's entry in the
// `make race` gate: concurrent ingest, drains, and a degraded-mode
// transition all publish while a subscriber reads — every delivered id must
// be strictly increasing (per-subscriber order is the bus contract even
// under drops).
func TestStreamConcurrentOrdering(t *testing.T) {
	fx := serveFixtures(t)
	dir := t.TempDir()
	srv := walServer(t, fx, dir)
	defer srv.jnl.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	nodes := fx.nodes()

	c := dialStream(t, ts.URL, 0)
	defer c.Close()

	var wg sync.WaitGroup
	for i, node := range nodes {
		if i >= 4 {
			break
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for e := 1; e <= 25; e++ {
				resp, body := postJSON(t, ts.URL+"/report", fx.hotReport(t, node, e))
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("node %d epoch %d: %d %s", node, e, resp.StatusCode, body)
					return
				}
			}
		}(node)
	}
	drainStop := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			select {
			case <-drainStop:
				return
			default:
			}
			srv.IngestQueued()
			srv.DrainTick()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(drainStop)
	<-drainDone
	srv.IngestQueued()
	srv.DrainTick()

	// A degraded transition publishes too, interleaved with the rest.
	srv.enterDegraded("wal: test-injected failure")
	srv.clearDegraded("wal")

	// Read everything delivered so far and assert per-subscriber ordering.
	var last uint64
	seen := map[string]int{}
	sawDegraded := false
deadlineLoop:
	for {
		select {
		case ev, ok := <-c.Events:
			if !ok {
				break deadlineLoop
			}
			if ev.ID <= last {
				t.Fatalf("event id %d after %d: ordering violated", ev.ID, last)
			}
			last = ev.ID
			seen[ev.Type]++
			if ev.Type == EvDegradedCleared {
				sawDegraded = true
				break deadlineLoop
			}
		case <-time.After(5 * time.Second):
			break deadlineLoop
		}
	}
	if !sawDegraded {
		t.Fatalf("DegradedCleared never arrived; saw %v", seen)
	}
	if seen[EvReportAccepted] == 0 || seen[EvEpochDiagnosed] == 0 || seen[EvDegradedEntered] == 0 {
		t.Errorf("missing event types under load: %v", seen)
	}
}

// TestStreamSmoke is the `make smoke-stream` target: boot the real server,
// confirm /stream connects and delivers a live event, /status answers with
// the stream counters, and the dashboard is served from the binary.
func TestStreamSmoke(t *testing.T) {
	fx := serveFixtures(t)
	srv, err := New(Options{
		Addr:          freePort(t),
		ModelPath:     fx.modelPath,
		CalibratePath: fx.tracePath,
		QueueSize:     64,
		DrainEvery:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.opts.Addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	c := dialStream(t, base, 0)
	defer c.Close()
	resp, body := postJSON(t, base+"/report", fx.hotReport(t, fx.nodes()[0], 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d %s", resp.StatusCode, body)
	}
	c.next(t, EvReportAccepted, 5*time.Second)

	sr, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]any
	err = json.NewDecoder(sr.Body).Decode(&status)
	sr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if status["stream_subscribers"].(float64) < 1 || status["reports_accepted"].(float64) != 1 {
		t.Fatalf("/status: subscribers=%v accepted=%v", status["stream_subscribers"], status["reports_accepted"])
	}
	dr, err := http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(dr.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK || !strings.Contains(sb.String(), "EpochDiagnosed") {
		t.Fatalf("dashboard: status %d, body mentions stream events: %v", dr.StatusCode, strings.Contains(sb.String(), "EpochDiagnosed"))
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down (open /stream must not stall Shutdown)")
	}
}
