package service

import (
	"context"
	"encoding/json"
	"fmt"

	"superpose/internal/core"
	"superpose/internal/failpoint"
	"superpose/internal/journal"
)

// journalRecord is one job state transition in the durability journal.
// The journal is a log of these, JSON-encoded, one per Append; replaying
// them in order reconstructs the job registry after a crash.
type journalRecord struct {
	Type      string          `json:"type"` // "submit", "start", "finish" or "cancel"
	ID        string          `json:"id"`
	Spec      *JobSpec        `json:"spec,omitempty"`    // submit
	Attempt   int             `json:"attempt,omitempty"` // start
	State     State           `json:"state,omitempty"`   // finish
	Error     string          `json:"error,omitempty"`
	CacheHit  bool            `json:"cache_hit,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
	LotReport json.RawMessage `json:"lot_report,omitempty"`
}

// journalAppend writes one record, serialized against compaction. A
// journal failure is counted, not escalated: the service keeps running
// jobs when the disk misbehaves (availability over durability) — the
// operator sees journal_errors climbing in /v1/stats.
func (s *Server) journalAppend(rec journalRecord) {
	payload := s.journalPayload(rec)
	if payload == nil {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.journalWriteLocked(payload)
}

// journalPayload encodes a record outside jmu (finish records carry
// whole reports); nil means there is nothing to write.
func (s *Server) journalPayload(rec journalRecord) []byte {
	if s.journal == nil || s.journalDead.Load() {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.counters.journalErrors.Add(1)
		return nil
	}
	return payload
}

// journalWriteLocked appends an encoded record; the caller holds jmu.
// journalDead is re-checked under the lock, so no record lands after a
// simulated power loss.
func (s *Server) journalWriteLocked(payload []byte) {
	if s.journalDead.Load() {
		return
	}
	if err := s.journal.Append(payload); err != nil {
		s.counters.journalErrors.Add(1)
		return
	}
	if s.opts.JournalTap != nil {
		// Under jmu: the tap observes records in durable append order.
		s.opts.JournalTap(payload)
	}
}

// enqueueJournaled enqueues a new job and journals its submit record
// under jmu. The worker that picks the job up journals its start record
// under the same lock, so replay always sees submit before start; a job
// the queue rejects leaves no record, and is never marked accepted, so
// a compaction cannot write one for it either.
func (s *Server) enqueueJournaled(j *Job) error {
	spec := j.Spec
	payload := s.journalPayload(journalRecord{Type: "submit", ID: j.ID, Spec: &spec})
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if err := s.queue.TryEnqueue(j); err != nil {
		return err
	}
	j.accepted = true
	if payload != nil {
		s.journalWriteLocked(payload)
	}
	return nil
}

func (s *Server) journalStart(j *Job, attempt int) {
	s.journalAppend(journalRecord{Type: "start", ID: j.ID, Attempt: attempt})
}

func (s *Server) journalCancel(j *Job) {
	s.journalAppend(journalRecord{Type: "cancel", ID: j.ID})
}

func (s *Server) journalFinish(j *Job) {
	if s.journal == nil || s.journalDead.Load() {
		return
	}
	st := j.Status()
	rec := journalRecord{Type: "finish", ID: j.ID, Attempt: st.Attempts,
		State: st.State, Error: st.Error, CacheHit: st.CacheHit}
	// The reports round-trip bit-for-bit (core/wire.go), so a restart
	// serves the identical artifact it would have served uninterrupted.
	if st.Report != nil {
		if raw, err := json.Marshal(st.Report); err == nil {
			rec.Report = raw
		}
	}
	if st.LotReport != nil {
		if raw, err := json.Marshal(st.LotReport); err == nil {
			rec.LotReport = raw
		}
	}
	s.journalAppend(rec)
}

// recoveredJob is the journal's view of one job after replay.
type recoveredJob struct {
	id        string
	spec      JobSpec
	attempts  int
	started   bool // a start record was seen (crashed mid-run if non-terminal)
	cancelled bool // a cancel record was seen
	finish    *journalRecord
}

// decodeJournal folds replayed records into per-job recovery state,
// preserving submission order, and returns the highest job number seen
// (the restart's ID allocator floor). Records that fail to decode are
// counted and skipped — one bad record must not take down recovery.
func (s *Server) decodeJournal(records [][]byte) (order []string, byID map[string]*recoveredJob, maxID uint64) {
	byID = make(map[string]*recoveredJob)
	for _, payload := range records {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.ID == "" {
			s.counters.journalErrors.Add(1)
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		r, ok := byID[rec.ID]
		if !ok {
			if rec.Type != "submit" || rec.Spec == nil {
				// A transition for a job whose submit record is gone
				// (pre-compaction damage); nothing to reconstruct.
				s.counters.journalErrors.Add(1)
				continue
			}
			r = &recoveredJob{id: rec.ID, spec: *rec.Spec}
			byID[rec.ID] = r
			order = append(order, rec.ID)
			continue
		}
		switch rec.Type {
		case "start":
			r.started = true
			if rec.Attempt > r.attempts {
				r.attempts = rec.Attempt
			}
		case "cancel":
			r.cancelled = true
		case "finish":
			rc := rec
			r.finish = &rc
			if rec.Attempt > r.attempts {
				r.attempts = rec.Attempt
			}
		}
	}
	return order, byID, maxID
}

// restore rebuilds the job registry from the decoded journal (called
// from New, under no locks — the server is not serving yet). Terminal
// jobs are registered as they finished; cancelled-but-unfinished jobs
// finish cancelled; the rest are queued for re-enqueue by Start's
// recovery goroutine.
func (s *Server) restore(order []string, byID map[string]*recoveredJob) {
	for _, id := range order {
		r := byID[id]
		if r.spec.SubmitToken != "" {
			// The token fence survives restarts: a coordinator re-sending
			// a pre-crash dispatch dedupes onto the recovered job.
			s.tokens[r.spec.SubmitToken] = id
		}
		switch {
		case r.finish != nil:
			var rep *core.Report
			var lr *core.LotReport
			if len(r.finish.Report) > 0 {
				rep = new(core.Report)
				if err := json.Unmarshal(r.finish.Report, rep); err != nil {
					s.counters.journalErrors.Add(1)
					rep = nil
				}
			}
			if len(r.finish.LotReport) > 0 {
				lr = new(core.LotReport)
				if err := json.Unmarshal(r.finish.LotReport, lr); err != nil {
					s.counters.journalErrors.Add(1)
					lr = nil
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // terminal: nothing left to abort
			s.jobs[id] = restoredJob(id, r.spec, ctx, cancel, r.finish.State, r.finish.Error, r.attempts, r.finish.CacheHit, rep, lr)
			s.counters.recoveredTerminal.Add(1)

		case r.cancelled:
			// Cancellation was requested but the crash beat the finish
			// record: honor the request rather than re-running.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s.jobs[id] = restoredJob(id, r.spec, ctx, cancel, StateCancelled, context.Canceled.Error(), r.attempts, false, nil, nil)
			s.counters.recoveredTerminal.Add(1)

		case r.started && r.attempts >= s.opts.MaxAttempts:
			// Crashed mid-run with the retry budget already spent.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s.jobs[id] = restoredJob(id, r.spec, ctx, cancel, StateFailed,
				fmt.Sprintf("service: interrupted by crash on attempt %d/%d", r.attempts, s.opts.MaxAttempts),
				r.attempts, false, nil, nil)
			s.counters.recoveredRunning.Add(1)

		default:
			// Queued at crash time, or interrupted mid-run with attempts
			// to spare: back into the queue. The flow is deterministic,
			// so the re-run produces the bit-identical report the
			// uninterrupted run would have.
			ctx, cancel := context.WithCancel(s.baseCtx)
			j := restoredJob(id, r.spec, ctx, cancel, StateQueued, "", r.attempts, false, nil, nil)
			s.jobs[id] = j
			s.reenqueue = append(s.reenqueue, j)
			if r.started {
				s.counters.recoveredRunning.Add(1)
			} else {
				s.counters.recoveredQueued.Add(1)
			}
		}
	}
}

// finishRecovery runs in the background after Start: it re-enqueues the
// journal's unfinished jobs and compacts the journal down to the live
// registry. The server reports not-ready until it completes. The
// "service/recovery" failpoint stretches (or fails) the window for
// tests.
func (s *Server) finishRecovery() {
	defer s.wg.Done()
	defer s.recovering.Store(false)
	if err := failpoint.Inject("service/recovery"); err != nil {
		s.counters.journalErrors.Add(1)
	}
	for _, j := range s.reenqueue {
		s.tenantAdd(j.Spec.Tenant, 1)
		if err := s.queue.TryEnqueue(j); err != nil {
			s.tenantAdd(j.Spec.Tenant, -1)
			j.finish(StateFailed, fmt.Errorf("service: re-enqueue after recovery: %w", err))
			s.journalFinish(j)
			s.counters.jobsFailed.Add(1)
		}
	}
	s.reenqueue = nil
	s.compactJournal()
}

// compactJournal rewrites the journal to one submit (+start/finish)
// record set per registered job, dropping replayed history. It holds
// jmu across snapshot and Reset so a concurrent finish can never land
// in the doomed segments and be lost.
func (s *Server) compactJournal() {
	if s.journal == nil {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journalDead.Load() {
		return
	}
	if err := s.journal.Reset(s.compactRecords()); err != nil {
		s.counters.journalErrors.Add(1)
	}
}

// SnapshotUnderJournalLock builds the compacted logical record set and
// hands it to fn while holding the journal append lock, so every record
// the JournalTap observes after fn returns strictly follows the
// snapshot. The HA replication hub rebases a fresh follower's stream
// from it when the history before the follower's offset has been
// trimmed.
func (s *Server) SnapshotUnderJournalLock(fn func(records [][]byte)) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	fn(s.compactRecords())
}

// compactRecords marshals the registry's compact representation (the
// records compaction writes): every accepted job. The caller holds jmu,
// which also guards Job.accepted.
func (s *Server) compactRecords() [][]byte {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.accepted {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	// Rebuild in job-number order so replay sees submissions in sequence.
	sortJobsByNumber(jobs)

	var records [][]byte
	appendRec := func(rec journalRecord) {
		payload, err := json.Marshal(rec)
		if err != nil {
			s.counters.journalErrors.Add(1)
			return
		}
		records = append(records, payload)
	}
	for _, j := range jobs {
		spec := j.Spec
		appendRec(journalRecord{Type: "submit", ID: j.ID, Spec: &spec})
		st := j.Status()
		if st.Attempts > 0 && !st.State.Terminal() {
			appendRec(journalRecord{Type: "start", ID: j.ID, Attempt: st.Attempts})
		}
		if st.State.Terminal() {
			rec := journalRecord{Type: "finish", ID: j.ID, Attempt: st.Attempts,
				State: st.State, Error: st.Error, CacheHit: st.CacheHit}
			if st.Report != nil {
				if raw, err := json.Marshal(st.Report); err == nil {
					rec.Report = raw
				}
			}
			if st.LotReport != nil {
				if raw, err := json.Marshal(st.LotReport); err == nil {
					rec.LotReport = raw
				}
			}
			appendRec(rec)
		}
	}
	return records
}

func sortJobsByNumber(jobs []*Job) {
	num := func(id string) uint64 {
		var n uint64
		fmt.Sscanf(id, "job-%d", &n)
		return n
	}
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && num(jobs[k].ID) < num(jobs[k-1].ID); k-- {
			jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
		}
	}
}

// openJournal wires the durability layer during New: replay, registry
// restore, and ID-allocator floor.
func (s *Server) openJournal(dir string) error {
	jnl, records, err := journal.Open(dir, journal.Options{NoSync: s.opts.NoSync})
	if err != nil {
		return fmt.Errorf("service: open journal: %w", err)
	}
	s.journal = jnl
	if s.opts.JournalTap != nil {
		for _, rec := range records {
			s.opts.JournalTap(rec)
		}
	}
	order, byID, maxID := s.decodeJournal(records)
	s.nextID = maxID
	s.restore(order, byID)
	s.recovering.Store(true)
	return nil
}
