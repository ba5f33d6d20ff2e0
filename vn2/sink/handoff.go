package sink

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink/api"
	"github.com/wsn-tools/vn2/vn2/sink/store"
)

// Shard handoff: the HTTP edge of a ring rebalance. Ownership of a node
// set moves between two sinks in three orchestrated steps (the cluster
// package's MoveNodes drives them):
//
//	POST /handoff/export  — source returns the nodes' monitor slice
//	                        (baselines, pending states, epoch contribs)
//	POST /handoff/import  — target journals the slice as a KindHandoff
//	                        WAL record, fsyncs, then merges it in
//	POST /handoff/release — source journals the release, fsyncs, then
//	                        drops the nodes
//
// Import strictly precedes release, so a crash anywhere in the window
// can duplicate the moved state across the two shards but never lose it;
// the fleet merge dedupes by ring ownership, so the duplication is
// invisible in the merged view (see cluster.MergeEpochs). All three
// operations go through the commit point as barriers (barrierWait): they
// observe exactly the reports ACKed before them, in the same order a WAL
// replay reproduces.

// maxHandoffBody bounds handoff request bodies. Slices scale with node
// count, not report count, so 32 MiB is generous even for large moves.
const maxHandoffBody = 32 << 20

// readNodes reads the export/release body, {"nodes": [id, ...]}, answering
// a malformed or empty one with 400 itself.
func (s *Server) readNodes(w http.ResponseWriter, r *http.Request) ([]packet.NodeID, bool) {
	raw, ok := s.readBody(w, r, maxHandoffBody)
	var req struct {
		Nodes []packet.NodeID `json:"nodes"`
	}
	if ok && (json.Unmarshal(raw, &req) != nil || len(req.Nodes) == 0) {
		s.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, "body must be {\"nodes\": [id, ...]}", nil)
		ok = false
	}
	return req.Nodes, ok
}

// handleEpochs serves the monitor's rolling per-epoch contributions in
// canonical order — the fleet aggregator's merge input. Unlike
// /diagnosis it is NOT pre-summed: the aggregator needs raw per-node
// contributions so the fleet-wide sum can run in one canonical order and
// stay bit-identical to a single sink (float addition is not
// associative). Served even while degraded: it reads diagnosis state the
// sink already holds. The body is {"epochs":[...],"rank":N} as
// api.WriteJSON would encode it, written from the monitor's rendered
// parts: the monitor's lock is held for the epochs that changed since the
// last read, and nothing holds the whole document.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	rank, parts, err := s.mon.EpochParts()
	if err != nil {
		api.Error(w, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"epochs":[`)
	for i, part := range parts {
		if i > 0 {
			io.WriteString(w, `,`)
		}
		w.Write(part)
	}
	fmt.Fprintf(w, "],\"rank\":%d}\n", rank)
}

// barrierFail answers a handoff whose barrier failed: a full queue or
// backlog or a slow ingest loop is a plain 503 (nothing changed, or the
// journaled change will still apply); anything else is the journal failing,
// which degrades the sink like a failed report append.
func (s *Server) barrierFail(w http.ResponseWriter, op string, err error) {
	switch {
	case errors.Is(err, errBacklogFull):
		api.Unavailable(w, retryAfterBusy, err.Error(), nil)
	case errors.Is(err, errQueueFull) || errors.Is(err, errApplyTimeout):
		api.Unavailable(w, retryAfterUnavailable, err.Error(), nil)
	default:
		writeOutcome(w, s.journalDown(op, err))
	}
}

// handleHandoffExport answers with the requested nodes' slice of monitor
// state. Read-only — nothing is journaled or dropped — but it still runs
// as a queue barrier so the slice includes every report ACKed before the
// call (an export taken outside the queue could miss reports sitting in
// it, and those would then be dropped by the later release).
func (s *Server) handleHandoffExport(w http.ResponseWriter, r *http.Request) {
	nodes, ok := s.readNodes(w, r)
	if !ok {
		return
	}
	var sl online.NodeSlice
	if err := s.barrierWait(0, nil, func() { sl = s.mon.ExportNodes(nodes) }); err != nil {
		s.barrierFail(w, "handoff export", err)
		return
	}
	s.handoffExports.Add(1)
	api.WriteJSON(w, http.StatusOK, sl)
}

// handleHandoffImport accepts a slice exported by a peer shard: validate
// against the live model/detector, journal it as a KindHandoff record
// (fsynced before anything mutates, so a crash replays the import), then
// merge it into the monitor at the barrier position. 200 only after the
// merge applied — the orchestrator may release the source immediately on
// seeing it.
func (s *Server) handleHandoffImport(w http.ResponseWriter, r *http.Request) {
	if out, shed := s.shedDegraded("degraded: handoff import refused"); shed {
		writeOutcome(w, out)
		return
	}
	raw, ok := s.readBody(w, r, maxHandoffBody)
	if !ok {
		return
	}
	var sl online.NodeSlice
	if err := json.Unmarshal(raw, &sl); err != nil {
		s.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, "body must be a handoff slice: "+err.Error(), nil)
		return
	}
	if sl.Empty() {
		api.WriteJSON(w, http.StatusOK, map[string]any{"imported_nodes": 0})
		return
	}
	// Validate BEFORE journaling: a slice that cannot import (wrong metric
	// count, causes outside the rank) must not become a WAL record that
	// fails again on every replay.
	if err := s.mon.ValidateSlice(sl); err != nil {
		s.badReqs.Add(1)
		api.Error(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	// Its pending states join the diagnosis backlog like reports (commit's
	// admission rule): a slice no amount of draining makes room for is a 413.
	if len(sl.Pending) > s.opts.MaxPending {
		api.Error(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("slice carries %d pending states, the diagnosis backlog holds %d", len(sl.Pending), s.opts.MaxPending), nil)
		return
	}
	var importErr error
	err := s.barrierWait(len(sl.Pending), func() (uint64, error) {
		return s.jnl.AppendControl(store.KindHandoff, store.HandoffRecord{Dir: store.HandoffIn, Slice: raw})
	}, func() { importErr = s.mon.ImportNodes(sl) })
	if err != nil {
		s.barrierFail(w, "handoff import", err)
		return
	}
	if importErr != nil {
		// Validated above, so only a concurrent model swap can get here; the
		// journaled record will surface the same mismatch at replay time.
		api.Error(w, http.StatusConflict, importErr.Error(), nil)
		return
	}
	s.handoffImports.Add(1)
	s.handoffNodes.Add(uint64(len(sl.Nodes)))
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"imported_nodes":   len(sl.Nodes),
		"imported_pending": len(sl.Pending),
		"imported_epochs":  len(sl.Epochs),
	})
	s.publish(EvHandoffImported, handoffEvent{Dir: store.HandoffIn, Nodes: len(sl.Nodes)})
}

// handleHandoffRelease drops the given nodes after the target durably
// imported them: journal the KindHandoff "out" record (replay re-drops at
// exactly this position, after the nodes' own report records), then drop
// at the barrier position.
func (s *Server) handleHandoffRelease(w http.ResponseWriter, r *http.Request) {
	if out, shed := s.shedDegraded("degraded: handoff release refused"); shed {
		writeOutcome(w, out)
		return
	}
	nodes, ok := s.readNodes(w, r)
	if !ok {
		return
	}
	err := s.barrierWait(0, func() (uint64, error) {
		return s.jnl.AppendControl(store.KindHandoff, store.HandoffRecord{Dir: store.HandoffOut, Nodes: nodes})
	}, func() { s.mon.DropNodes(nodes) })
	if err != nil {
		s.barrierFail(w, "handoff release", err)
		return
	}
	s.handoffReleases.Add(1)
	api.WriteJSON(w, http.StatusOK, map[string]any{"released_nodes": len(nodes)})
	s.publish(EvHandoffReleased, handoffEvent{Dir: store.HandoffOut, Nodes: len(nodes)})
}

// replayHandoff re-applies one KindHandoff WAL record during startup
// replay: "in" records re-import the slice they carry, "out" records
// re-drop the nodes — each at exactly its LSN position between report
// records, reproducing the live ordering.
func (s *Server) replayHandoff(inner []byte) error {
	var rec store.HandoffRecord
	if err := json.Unmarshal(inner, &rec); err != nil {
		s.walBadRec.Add(1)
		return nil
	}
	switch rec.Dir {
	case store.HandoffIn:
		var sl online.NodeSlice
		if err := json.Unmarshal(rec.Slice, &sl); err != nil {
			s.walBadRec.Add(1)
			return nil
		}
		if err := s.mon.ImportNodes(sl); err != nil {
			// The slice was validated against the model serving at append
			// time; failing now means the sink is restarting under a
			// different model — the same fatal operator error as a snapshot
			// mismatch.
			if errors.Is(err, online.ErrBadState) {
				return fmt.Errorf("%w: %v", ErrSnapshotMismatch, err)
			}
			return err
		}
		s.handoffImports.Add(1)
		s.handoffNodes.Add(uint64(len(sl.Nodes)))
	case store.HandoffOut:
		s.mon.DropNodes(rec.Nodes)
		s.handoffReleases.Add(1)
	default:
		s.walBadRec.Add(1)
	}
	s.walReplayed.Add(1)
	return nil
}
