package sink

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2"
)

// serveFixtures builds (once) a calibration trace and a trained model from
// the same generator + trainer the CLI subcommands wrap, exactly as an
// operator would.
type fixtures struct {
	dir       string
	tracePath string
	modelPath string
	// tail maps each node to its last calibration record, for crafting the
	// next live report.
	tail map[int]trace.Record
}

var (
	fixOnce sync.Once
	fix     fixtures
	fixErr  error
)

// trainModelFile trains a rank-r model from the trace CSV and saves it,
// mirroring `vn2 train -rank r -all-states`.
func trainModelFile(tracePath, outPath string, rank int) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	ds, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	model, _, err := vn2.Train(ds.States(), vn2.TrainConfig{
		Rank:              rank,
		CompressAllStates: true,
		Seed:              1,
	})
	if err != nil {
		return err
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := model.Save(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func serveFixtures(t testing.TB) fixtures {
	t.Helper()
	fixOnce.Do(func() {
		dir, err := os.MkdirTemp("", "vn2-sink-test-")
		if err != nil {
			fixErr = err
			return
		}
		fix.dir = dir
		fix.tracePath = filepath.Join(dir, "trace.csv")
		fix.modelPath = filepath.Join(dir, "model.json")
		res, err := tracegen.Testbed(tracegen.TestbedOptions{Seed: 3, Scenario: tracegen.ScenarioExpansive})
		if err != nil {
			fixErr = fmt.Errorf("tracegen: %w", err)
			return
		}
		tf, err := os.Create(fix.tracePath)
		if err != nil {
			fixErr = err
			return
		}
		if err := res.Dataset.WriteCSV(tf); err != nil {
			tf.Close()
			fixErr = fmt.Errorf("write trace: %w", err)
			return
		}
		if err := tf.Close(); err != nil {
			fixErr = err
			return
		}
		if err := trainModelFile(fix.tracePath, fix.modelPath, 6); err != nil {
			fixErr = fmt.Errorf("train: %w", err)
			return
		}
		fix.tail = make(map[int]trace.Record)
		for _, id := range res.Dataset.Nodes() {
			recs := res.Dataset.Records(id)
			fix.tail[int(id)] = recs[len(recs)-1]
		}
	})
	if fixErr != nil {
		t.Fatalf("fixtures: %v", fixErr)
	}
	return fix
}

// hotReport derives the next report for a node with a violent counter jump
// the frozen detector is certain to flag.
func (f fixtures) hotReport(t testing.TB, node int, epochsAhead int) trace.Record {
	t.Helper()
	last, ok := f.tail[node]
	if !ok {
		t.Fatalf("node %d not in calibration trace", node)
	}
	v := append([]float64(nil), last.Vector...)
	for k := 0; k < 6 && k < len(v); k++ {
		v[k] += 1e7
	}
	return trace.Record{Node: last.Node, Epoch: last.Epoch + epochsAhead, Vector: v}
}

func (f fixtures) nodes() []int {
	out := make([]int, 0, len(f.tail))
	for id := range f.tail {
		out = append(out, id)
	}
	return out
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
