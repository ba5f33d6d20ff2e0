package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2/cluster"
)

// district is the production-shape report stream the wire budget is taken
// on: one seeded CitySee district — 72 nodes, two days, the full 43-metric
// vector with the trace's own epoch-to-epoch sparsity — grouped per node in
// epoch order.
var district = sync.OnceValues(func() ([][]trace.Record, error) {
	res, err := tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: 2, Days: 2, Nodes: 72})
	if err != nil {
		return nil, err
	}
	var nodes [][]trace.Record
	for _, id := range res.Dataset.Nodes() {
		nodes = append(nodes, res.Dataset.Records(id))
	}
	return nodes, nil
})

// TestDeltaWireBudget pins the delta codec's byte cost in tier-1: the whole
// district in (epoch, node) order through one FrameEncoder in 64-record
// frames — frame headers and every node's first full record included —
// must average at most 175 B/report (full encoding costs 352). The subtests
// hold the inner hop to the same budget: what a real cluster.Router sends 2
// and 4 shards is the bytes that arrived, cut at record boundaries, plus a
// frame header per extra slice — never less; re-encoded full it was 352.
func TestDeltaWireBudget(t *testing.T) {
	nodes, err := district()
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for _, n := range nodes {
		recs = append(recs, n...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Epoch < recs[j].Epoch })
	enc := packet.NewFrameEncoder()
	var frames [][]byte
	wire := 0
	for i, rec := range recs {
		if err := enc.Add(rec.Node, rec.Epoch, rec.Vector); err != nil {
			t.Fatal(err)
		}
		if enc.Count() == 64 || i == len(recs)-1 {
			frame, err := enc.Frame()
			if err != nil {
				t.Fatal(err)
			}
			frames, wire = append(frames, bytes.Clone(frame)), wire+len(frame)
			enc.Reset()
		}
	}
	budget := func(t *testing.T, hop int) {
		perReport := float64(hop) / float64(len(recs))
		t.Logf("%d reports, %.1f B/report", len(recs), perReport)
		if hop < wire || perReport > 175 {
			t.Fatalf("%.1f B/report (%d bytes of the client's %d), budget 175", perReport, hop, wire)
		}
	}
	budget(t, wire)
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("router to %d shards", k), func(t *testing.T) {
			hop, urls := &hopBytes{}, strings.Fields(strings.Repeat("http://shard ", k))
			rt, err := cluster.NewRouter(cluster.Config{Shards: urls, Seed: 7, Client: &http.Client{Transport: hop}})
			if err != nil {
				t.Fatal(err)
			}
			h := rt.Handler()
			for _, frame := range frames {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/report/bin", bytes.NewReader(frame)))
				if w.Code != http.StatusAccepted {
					t.Fatalf("router answered %d: %s", w.Code, w.Body)
				}
			}
			budget(t, hop.n)
		})
	}
}

// hopBytes stands in for the network between a router and its shards: it
// counts the bytes of every slice and answers 202.
type hopBytes struct{ n int }

func (h *hopBytes) RoundTrip(req *http.Request) (*http.Response, error) {
	n, err := io.Copy(io.Discard, req.Body)
	h.n += int(n)
	return &http.Response{StatusCode: http.StatusAccepted, Body: http.NoBody}, err
}
