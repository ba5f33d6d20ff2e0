package sink

import "time"

// metrics is the GET /metrics body: every layer's counters in one flat
// expvar-style map (encoding/json sorts the keys, so the wire bytes depend
// only on the key/value set). Each key has one source — model_version is the
// monitor's: the generation labelling diagnoses right now.
func (s *Server) metrics() map[string]any {
	woken, ticked := s.drainsWoken.Load(), s.drainsTicked.Load()
	degraded := 0
	if s.deg.Active() {
		degraded = 1
	}
	st, ds, bst := s.mon.Stats(), s.mon.DriftStats(), s.bus.Stats()
	staged, drained := s.mon.Solves()
	m := map[string]any{
		// HTTP edge + ingest queue.
		"reports_received":        s.received.Load(),
		"reports_accepted":        s.accepted.Load(),
		"reports_rejected":        s.rejected.Load(),
		"reports_refused_backlog": s.refusedBacklog.Load(),
		"bad_requests":            s.badReqs.Load(),
		"reports_ingested":        s.ingested.Load(),
		"ingest_errors":           s.ingestErr.Load(),
		"queue_depth":             s.QueueDepth(),
		"queue_capacity":          s.opts.QueueSize,
		"drains":                  woken + ticked,
		"drains_woken":            woken,
		"drains_ticked":           ticked,
		"drain_busy_us":           s.drainBusy.Load() / 1000,
		"drain_errors":            s.drainErrs.Load(),
		"drain_fails_in_a_row":    s.drainFails.Load(),
		"snapshots_written":       s.snapshots.Load(),
		"snapshot_errors":         s.snapErrs.Load(),
		"snapshot_bytes":          s.snapBytes.Load(),
		"snapshot_ms":             ms(time.Duration(s.snapNanos.Load())),
		// Where the (re)start spent its time; fixed once New has returned.
		"boot_ms":             ms(s.boot.total()),
		"boot_calibration_ms": ms(s.boot.calibRead + s.boot.calibrate),
		"boot_replay_ms":      ms(s.boot.replay),
		// Degraded-mode state machine.
		"degraded":         degraded,
		"degraded_entries": s.deg.Entries(),
		// Monitor stream counters + drift view.
		"monitor_reports":         st.Reports,
		"monitor_first_reports":   st.FirstReports,
		"monitor_stale":           st.Stale,
		"monitor_duplicates":      st.Duplicates,
		"monitor_invalid":         st.Invalid,
		"monitor_normal":          st.Normal,
		"monitor_flagged":         st.Flagged,
		"monitor_dropped":         st.Dropped,
		"monitor_diagnosed":       st.Diagnosed,
		"diagnoses_staged":        staged,
		"diagnoses_drained":       drained,
		"monitor_gap_reports":     st.GapReports,
		"monitor_max_gap":         st.MaxGap,
		"monitor_last_epoch":      st.LastEpoch,
		"pending_states":          s.mon.Pending(),
		"epochs_rendered":         s.mon.EpochsRendered(),
		"model_version":           ds.ModelVersion,
		"drift_window":            ds.Window,
		"drift_unattributed":      st.Unattributed,
		"drift_unattributed_rate": ds.UnattributedRate,
		"drift_mean_residual":     ds.MeanResidual,
		"drift_residual_p50":      ds.P50,
		"drift_residual_p90":      ds.P90,
		"drift_residual_p99":      ds.P99,
		"quarantine_len":          ds.Quarantine,
		// The frame-stream edge and the bus replay journal's byte budget:
		// load-shedding and eviction signals operators alert on.
		"stream_conns":          s.StreamConns(),
		"stream_conns_total":    s.streamConnsTotal.Load(),
		"stream_conns_rejected": s.streamRejects.Load(),
		"stream_frames":         s.streamFrames.Load(),
		"stream_nacks":          s.streamNacks.Load(),
		"bus_journal_bytes":     bst.JournalBytes,
		"bus_journal_evictions": bst.JournalEvictions,
		// Shard handoff: ownership moves through this sink.
		"handoff_exports":  s.handoffExports.Load(),
		"handoff_imports":  s.handoffImports.Load(),
		"handoff_releases": s.handoffReleases.Load(),
		"handoff_nodes_in": s.handoffNodes.Load(),
		// Model lifecycle.
		"model_swaps":               s.lc.Swaps.Load(),
		"model_rollbacks":           s.lc.Rollbacks.Load(),
		"model_retrains":            s.lc.Retrains.Load(),
		"model_retrain_failures":    s.lc.RetrainFails.Load(),
		"model_candidates_rejected": s.lc.CandRejects.Load(),
	}
	if s.jnl != nil {
		m["wal_errors"] = s.jnl.Errs()
		m["wal_segments"] = s.jnl.Segments()
		// Read in this order, applied ≤ durable < next_lsn holds in the map.
		m["wal_applied"] = s.applied.Load()
		m["wal_durable"] = s.jnl.Durable()
		m["wal_next_lsn"] = s.jnl.NextLSN()
		m["wal_truncations"] = s.jnl.Truncations()
		m["wal_replayed"] = s.walReplayed.Load()
		m["wal_replay_skipped"] = s.walSkipped.Load()
		m["wal_replay_bad"] = s.walBadRec.Load()
	}
	return m
}

// status is the GET /status body: metrics plus provenance, health detail and
// per-subsystem counters that are not part of the /metrics key set.
func (s *Server) status() map[string]any {
	m := s.metrics()
	m["started"] = s.started.UTC().Format(time.RFC3339Nano)
	m["uptime_s"] = time.Since(s.started).Seconds()
	m["uptime"] = time.Since(s.started).Round(time.Second).String()
	m["lifecycle_enabled"] = s.opts.Lifecycle.Enabled
	_, cooldown, probation := s.lc.State()
	m["model_cooldown_ticks"] = cooldown
	m["model_probation"] = probation
	m["model_retraining"] = s.lc.Retraining()
	m["model_history"] = s.lc.History()
	if reason, since := s.deg.Reason(); reason != "" {
		m["degraded_reason"] = reason
		m["degraded_for_s"] = time.Since(since).Seconds()
	}
	bst := s.bus.Stats()
	m["stream_subscribers"] = bst.Subscribers
	m["stream_dropped"] = bst.Dropped
	m["stream_published"] = bst.Published
	m["stream_encode_errors"] = bst.EncodeErrs
	m["stream_journal_len"] = bst.JournalLen
	m["stream_journal_cap"] = bst.JournalCap
	m["stream_next_seq"] = s.bus.NextSeq()
	// Binary ingest path (/report/bin).
	m["bin_frames"] = s.binFrames.Load()
	m["bin_rejects"] = s.binRejects.Load()
	// Frames decode under commitMu: read there, the counters agree.
	s.commitMu.Lock()
	m["bin_records"] = s.binRecords.Load()
	m["bin_bytes"] = s.binBytes.Load()
	m["bin_deltas"] = s.binDec.Deltas()
	m["bin_fulls"] = s.binRecords.Load() - s.binDec.Deltas()
	m["bin_cache_nodes"] = s.binDec.Nodes()
	s.commitMu.Unlock()
	return m
}
