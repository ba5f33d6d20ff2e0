package sink

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot loader and restores
// the monitor state of whatever it accepts into a fresh monitor on the
// seed sink's model and detector. Nothing may panic. Restore either refuses
// the state with ErrBadState or yields a monitor whose rendered parts are
// json.Marshal of its own State().Epochs — and reading them, which settles
// every epoch but the newest, changes no byte of State(). Seeded from a real
// sink's snapshot.
func FuzzReadSnapshot(f *testing.F) {
	srv := viewSink(f, f.TempDir())
	feed(f, srv, serveFixtures(f).rampBatches(f, 6*40, 40), 1)
	if err := srv.writeSnapshot(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(srv.opts.SnapshotPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":3,"monitor":{"stats":{"last_epoch":2},"nodes":[],"epochs":[{"epoch":1,"contribs":[{"node":1,"causes":[{"cause":0,"strength":-0}]},{"node":1,"causes":null}]},{"epoch":2,"contribs":[]}]}}`))
	f.Add([]byte(`{"version":1}`))
	model, det := srv.lc.Current().Model, srv.det
	path := filepath.Join(f.TempDir(), "snapshot.json")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := store.ReadSnapshot(path)
		if err != nil || snap.Monitor == nil {
			return
		}
		mon, err := online.NewMonitor(online.Config{Model: model, Detector: det, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Restore(*snap.Monitor); err != nil {
			if !errors.Is(err, online.ErrBadState) {
				t.Fatalf("Restore refused a state with %v, want ErrBadState", err)
			}
			return
		}
		before, err := json.Marshal(mon.State())
		if err != nil {
			t.Fatal(err)
		}
		_, parts, err := mon.EpochParts()
		if err != nil {
			t.Fatalf("EpochParts: %v", err)
		}
		st := mon.State()
		want, err := json.Marshal(st.Epochs)
		if err != nil {
			t.Fatal(err)
		}
		if got := append(append([]byte("["), bytes.Join(parts, []byte(","))...), ']'); !bytes.Equal(got, want) {
			t.Fatalf("parts are not json.Marshal of State().Epochs\n got %.300s\nwant %.300s", got, want)
		}
		if after, err := json.Marshal(st); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("reading the parts changed State() (err %v)\nbefore %.300s\n after %.300s", err, before, after)
		}
	})
}
