package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"superpose/internal/core"
	"superpose/internal/tester"
	"superpose/internal/trust"
)

// JobKind selects the pipeline a job runs.
type JobKind string

const (
	// KindDetect certifies a single die.
	KindDetect JobKind = "detect"
	// KindLot certifies a whole manufacturing lot.
	KindLot JobKind = "lot"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateDeadline is a job killed by its own TimeoutSec budget —
	// distinct from cancelled (a client or drain decision) so callers can
	// tell "I asked for too little time" from "someone aborted me".
	StateDeadline State = "deadline"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateDeadline
}

// JobSpec is the request body of POST /v1/jobs: which design to certify
// and under what flow configuration. Exactly one of Case (a built-in
// benchmark, e.g. "s35932-T200") or Bench (an inline ISCAS .bench
// netlist) selects the design.
type JobSpec struct {
	Kind JobKind `json:"kind"`

	// Design selection.
	Case   string `json:"case,omitempty"`
	Bench  string `json:"bench,omitempty"`
	Infect int    `json:"infect,omitempty"` // with Bench: auto-place a Trojan with this many taps
	Clean  bool   `json:"clean,omitempty"`  // manufacture a Trojan-free die

	// Flow configuration (zero means the service default).
	Scale      float64 `json:"scale,omitempty"`       // benchmark scale (default 0.05)
	Varsigma   float64 `json:"varsigma,omitempty"`    // intra-die 3σ and verdict bound (default 0.15)
	Chains     int     `json:"chains,omitempty"`      // scan chains (default 4)
	Seeds      int     `json:"seeds,omitempty"`       // adaptive runs from the top seeds (default 3)
	ChipSeed   uint64  `json:"chip_seed,omitempty"`   // die selection seed (default 1)
	Dies       int     `json:"dies,omitempty"`        // lot size, kind=lot only (default 5)
	Tester     string  `json:"tester,omitempty"`      // tester fault preset (default clean)
	TesterSeed uint64  `json:"tester_seed,omitempty"` // fault realization seed (default 1)
	Workers    int     `json:"workers,omitempty"`     // per-job fan-out (0 = one per CPU)

	// TimeoutSec, when positive, caps the job's total run time (across
	// retries). A job that exceeds it finishes in state "deadline".
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Tenant attributes the job to a client for quota accounting and
	// the per-tenant queue depths in /v1/stats (default "default").
	Tenant string `json:"tenant,omitempty"`

	// SubmitToken, when set, makes the submission idempotent: a second
	// submit carrying the same token returns the job the first one
	// created instead of enqueueing a duplicate. The cluster coordinator
	// stamps dispatches with one so a re-sent RPC (after a crash or an
	// ambiguous timeout) cannot double-run a job. Tokens do not affect
	// the artifact-cache identity.
	SubmitToken string `json:"submit_token,omitempty"`
}

// withDefaults fills the service defaults into zero fields.
func (s JobSpec) withDefaults() JobSpec {
	if s.Scale == 0 {
		s.Scale = 0.05
	}
	if s.Varsigma == 0 {
		s.Varsigma = 0.15
	}
	if s.Chains == 0 {
		s.Chains = 4
	}
	if s.Seeds == 0 {
		s.Seeds = 3
	}
	if s.ChipSeed == 0 {
		s.ChipSeed = 1
	}
	if s.Dies == 0 {
		s.Dies = 5
	}
	if s.Tester == "" {
		s.Tester = "clean"
	}
	if s.TesterSeed == 0 {
		s.TesterSeed = 1
	}
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	return s
}

// ContentKey is the content-addressed identity of the job's design —
// the artifact-cache instance key. The cluster coordinator routes by
// it so jobs sharing a design land on the worker already holding the
// cached netlist and ATPG artifacts.
func (s JobSpec) ContentKey() string {
	return instanceKey(s.withDefaults())
}

// Validate rejects specs the workers could not execute. It runs at
// submission time so the client gets a 400 rather than a failed job.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindDetect, KindLot:
	default:
		return fmt.Errorf("unknown kind %q (want %q or %q)", s.Kind, KindDetect, KindLot)
	}
	if (s.Case == "") == (s.Bench == "") {
		return fmt.Errorf("exactly one of case or bench is required")
	}
	if s.Case != "" {
		found := false
		for _, n := range trust.Names() {
			if n == s.Case {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown case %q (available: %v)", s.Case, trust.Names())
		}
		if s.Infect != 0 {
			return fmt.Errorf("infect applies to inline bench jobs only")
		}
	}
	if s.Infect < 0 {
		return fmt.Errorf("infect must be >= 0, got %d", s.Infect)
	}
	if s.Scale < 0 || s.Scale > 1 {
		return fmt.Errorf("scale must be in (0, 1], got %g", s.Scale)
	}
	if s.Varsigma < 0 || s.Varsigma > 1 {
		return fmt.Errorf("varsigma must be in (0, 1], got %g", s.Varsigma)
	}
	if s.Chains < 0 || s.Seeds < 0 || s.Dies < 0 || s.Workers < 0 {
		return fmt.Errorf("chains, seeds, dies and workers must be >= 0")
	}
	if s.TimeoutSec < 0 {
		return fmt.Errorf("timeout_sec must be >= 0, got %g", s.TimeoutSec)
	}
	if len(s.Tenant) > 64 {
		return fmt.Errorf("tenant name exceeds 64 bytes")
	}
	if len(s.SubmitToken) > 128 {
		return fmt.Errorf("submit_token exceeds 128 bytes")
	}
	if s.Tester != "" {
		if _, err := tester.Preset(s.Tester, 1); err != nil {
			return err
		}
	}
	return nil
}

// Event is one SSE message on a job's event stream. Seq is the event's
// position in the job's stream, carried as the SSE id: field, so a
// client that reconnects with Last-Event-ID resumes from where its
// connection dropped (as far as the retained buffer reaches).
type Event struct {
	Seq      uint64         `json:"seq"`
	Type     string         `json:"type"` // "state", "progress", "retry" or "result"
	State    State          `json:"state"`
	Attempt  int            `json:"attempt,omitempty"` // "retry" events: the attempt that just failed
	Progress *core.Progress `json:"progress,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// retainedEvents bounds the per-job replay buffer behind Last-Event-ID
// resumption. A reconnecting client that fell further behind than this
// simply misses the oldest events — the terminal result is still always
// delivered.
const retainedEvents = 512

// Job is one submitted certification run.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	// cancel aborts the job's run context; set at submission so queued
	// jobs are cancellable before a worker picks them up.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	progress  *core.Progress // latest progress event
	report    *core.Report
	lotReport *core.LotReport
	errMsg    string
	cacheHit  bool // any artifact lookup was served from the cache
	attempts  int  // execution attempts so far (survives recovery)
	created   time.Time
	finished  time.Time
	seq       uint64  // last assigned event sequence number
	events    []Event // retained tail of the event stream (replay buffer)
	subs      map[chan Event]struct{}
	done      chan struct{} // closed on reaching a terminal state

	// accepted marks a job whose submit record is journaled: set under
	// the server's jmu once the queue takes it, or on replay. Compaction
	// (under jmu) writes only accepted jobs, so a job Submit has
	// registered but the queue has not yet taken — or rejects — leaves
	// no record.
	accepted bool
}

func newJob(id string, spec JobSpec, ctx context.Context, cancel context.CancelFunc) *Job {
	return &Job{
		ID:      id,
		Spec:    spec,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: time.Now(),
		subs:    make(map[chan Event]struct{}),
		done:    make(chan struct{}),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cancellation. A queued job transitions to cancelled
// immediately; a running job's context is cancelled and the worker
// finishes the transition when the flow unwinds.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	if j.state == StateQueued {
		j.finishLocked(StateCancelled, context.Canceled)
	}
	j.mu.Unlock()
}

// start transitions queued → running; it reports false when the job was
// cancelled while queued (the worker then skips it).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.broadcastLocked(Event{Type: "state", State: StateRunning})
	return true
}

// finish transitions to a terminal state and wakes all waiters.
func (j *Job) finish(state State, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, err)
}

func (j *Job) finishLocked(state State, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.broadcastLocked(Event{Type: "result", State: state, Error: j.errMsg})
	close(j.done)
}

// PublishProgress records and broadcasts a progress event. Lot jobs
// emit from concurrent per-die workers, and the cluster coordinator
// forwards a remote worker's progress through it, so this must be
// (and is) safe for concurrent use.
func (j *Job) PublishProgress(p core.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	cp := p
	j.progress = &cp
	j.broadcastLocked(Event{Type: "progress", State: j.state, Progress: &cp})
}

// subscribe registers an SSE listener. replay is what the handler must
// write before streaming live events: with resume=false, a snapshot
// event carrying the job's current state (so late subscribers are not
// blind until the next transition); with resume=true, every retained
// event after afterSeq — the Last-Event-ID contract. A slow listener
// loses intermediate events rather than blocking the flow — the final
// result is never lost because the SSE handler also watches Done.
func (j *Job) subscribe(afterSeq uint64, resume bool) (replay []Event, ch chan Event) {
	ch = make(chan Event, 64)
	j.mu.Lock()
	defer j.mu.Unlock()
	if resume {
		for _, ev := range j.events {
			if ev.Seq > afterSeq {
				replay = append(replay, ev)
			}
		}
	} else {
		replay = []Event{{Seq: j.seq, Type: "state", State: j.state, Progress: j.progress, Error: j.errMsg}}
	}
	if j.state.Terminal() {
		// Terminal already: make sure the result event is part of the
		// replay, since Done is closed and the handler drains then exits.
		// (A resumed subscriber may already have it in replay — only the
		// snapshot path needs the addition.)
		if !resume {
			replay = append(replay, Event{Seq: j.seq, Type: "result", State: j.state, Error: j.errMsg})
		}
		return replay, ch
	}
	j.subs[ch] = struct{}{}
	return replay, ch
}

func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// broadcastLocked assigns the event its sequence number, retains it for
// Last-Event-ID replay, and fans it out to live subscribers.
func (j *Job) broadcastLocked(ev Event) {
	j.seq++
	ev.Seq = j.seq
	if len(j.events) >= retainedEvents {
		j.events = j.events[1:]
	}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the pipeline
		}
	}
}

// nextAttempt increments and returns the job's attempt counter — called
// by the worker at the top of each execution attempt.
func (j *Job) nextAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts++
	return j.attempts
}

// lastSeq returns the sequence number of the newest broadcast event.
func (j *Job) lastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// finishedAt returns when the job reached a terminal state; ok is
// false while it has not.
func (j *Job) finishedAt() (at time.Time, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return time.Time{}, false
	}
	return j.finished, true
}

// Attempts returns how many execution attempts the job has consumed.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// publishRetry broadcasts a "retry" event: attempt just failed with err
// and the job is about to back off and run again.
func (j *Job) publishRetry(attempt int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.broadcastLocked(Event{Type: "retry", State: j.state, Attempt: attempt, Error: err.Error()})
}

// Status is the wire view of a job (GET /v1/jobs/{id}).
type Status struct {
	ID        string          `json:"id"`
	Kind      JobKind         `json:"kind"`
	State     State           `json:"state"`
	Attempts  int             `json:"attempts,omitempty"`
	Progress  *core.Progress  `json:"progress,omitempty"`
	Error     string          `json:"error,omitempty"`
	CacheHit  bool            `json:"cache_hit"`
	Report    *core.Report    `json:"report,omitempty"`
	LotReport *core.LotReport `json:"lot_report,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		Attempts:  j.attempts,
		Progress:  j.progress,
		Error:     j.errMsg,
		CacheHit:  j.cacheHit,
		Report:    j.report,
		LotReport: j.lotReport,
	}
}

// restoredJob reconstructs a job from journal replay. Terminal jobs come
// back exactly as they finished (reports included); non-terminal jobs
// come back queued, with their attempt count preserved so recovery
// cannot retry past the configured budget.
func restoredJob(id string, spec JobSpec, ctx context.Context, cancel context.CancelFunc, st State, errMsg string, attempts int, cacheHit bool, rep *core.Report, lr *core.LotReport) *Job {
	j := newJob(id, spec, ctx, cancel)
	j.accepted = true // replayed from a journaled submit
	j.attempts = attempts
	j.cacheHit = cacheHit
	// Seq floor: restart the event stream well above anything the
	// previous incarnation can have issued, so a client reconnecting
	// with Last-Event-ID to a restarted (or failed-over) server sees
	// strictly increasing ids and never confuses old events for new.
	// Each incarnation consumes at least one attempt before the next
	// crash, and no attempt emits anywhere near 2^20 events, so the
	// floor is monotone across incarnations.
	j.seq = uint64(attempts) << 20
	if st.Terminal() {
		j.state = st
		j.errMsg = errMsg
		j.report = rep
		j.lotReport = lr
		j.finished = time.Now()
		close(j.done)
	}
	return j
}

// SetResult attaches the job's finished artifact — called by the
// built-in executor, and by a cluster coordinator adopting a report
// produced on a remote worker.
func (j *Job) SetResult(rep *core.Report, lr *core.LotReport) {
	j.mu.Lock()
	j.report = rep
	j.lotReport = lr
	j.mu.Unlock()
}

// SetCacheHit records that some artifact lookup for the job was served
// from a cache (local or a remote worker's).
func (j *Job) SetCacheHit(hit bool) {
	j.mu.Lock()
	j.cacheHit = j.cacheHit || hit
	j.mu.Unlock()
}
