// Package service is the certification daemon's engine: a bounded job
// queue, a worker pool driving the core detection flow under
// cancellable contexts, a content-hash artifact cache that lets repeat
// submissions skip netlist construction and ATPG, and the HTTP/JSON API
// (plus SSE progress streams) that cmd/superposed serves.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"superpose/internal/journal"
	"superpose/internal/retry"
)

// Options configures a Server.
type Options struct {
	// QueueSize bounds the pending-job backlog (default 16); submissions
	// beyond it are rejected with 429.
	QueueSize int
	// Workers is the number of jobs run concurrently (default 1: the
	// per-job fan-out already parallelizes across dies and faults, so
	// more job workers mainly help mixed small/large workloads).
	Workers int

	// DataDir, when non-empty, enables the crash-safe job journal under
	// DataDir/journal: every job state transition is logged, and a
	// restarted server replays the log — finished jobs come back with
	// their reports, unfinished ones go back into the queue.
	DataDir string
	// NoSync skips the journal's per-append fsync (tests; see journal.Options).
	NoSync bool

	// MaxAttempts caps execution attempts per job, counting the first
	// (default 3). Transient failures — unstable acquisition, injected
	// faults, recovered panics — are retried with backoff up to this cap.
	MaxAttempts int
	// RetryBase and RetryMax bound the decorrelated-jitter backoff
	// between attempts (defaults 50ms and 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryBudget is the server-wide retry token bucket capacity (default
	// 16): when failures outpace successes the bucket empties and retries
	// are denied, so an outage is not amplified by retry traffic.
	RetryBudget float64

	// BreakerThreshold and BreakerCooldown configure the per-tester-
	// profile circuit breakers (defaults 5 consecutive failures, 30s
	// cooldown). A tripped profile sheds submissions with 503 +
	// Retry-After until a half-open probe succeeds.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Heartbeat is the SSE keep-alive comment interval (default 15s).
	Heartbeat time.Duration

	// Retain, when positive, bounds how long terminal jobs stay in the
	// registry: a sweeper evicts jobs (and their submit-token fences)
	// that finished longer than Retain ago, so a long-running server's
	// memory does not grow with lifetime job throughput. Zero keeps
	// everything forever (the default — correct for short-lived and
	// test servers). Because eviction drops the token fence, Retain
	// must sit far above any coordinator's redispatch/reclaim horizon.
	Retain time.Duration

	// Runner, when non-nil, replaces the built-in executor for every
	// job — the cluster coordinator injects its dispatch-to-worker path
	// here. The per-job retry/backoff/classification loop, journaling
	// and breakers still apply around it.
	Runner func(ctx context.Context, j *Job) error

	// Admit, when non-nil, is consulted after validation and before a
	// spec reaches the breaker and the queue — the hook point for
	// per-tenant quotas. A returned *ThrottleError maps to HTTP 429
	// with its jittered Retry-After hint; any other error aborts the
	// submission as a 500.
	Admit func(spec JobSpec) error

	// ExtraStats, when non-nil, decorates the /v1/stats payload before
	// it is written — the cluster layer adds lease/handoff/steal
	// counters here.
	ExtraStats func(*Stats)

	// ExtraReady, when non-nil, contributes additional not-ready
	// reasons to /healthz/ready — e.g. "no live workers" on a cluster
	// coordinator.
	ExtraReady func() []string

	// JournalTap, when non-nil, observes every journal record: once per
	// replayed record during New (in replay order, before the server
	// serves) and once per record durably appended afterwards, in append
	// order. The HA replication hub hangs off this to stream the
	// primary's logical history to a standby. Compaction rewrites are
	// not re-tapped — they carry no new state.
	JournalTap func(payload []byte)
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 16
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 15 * time.Second
	}
	return o
}

// counters is the service's expvar-style instrumentation. It is a plain
// atomic struct rather than the expvar registry because the registry is
// process-global: registering twice panics, which would make every
// multi-server test (and any embedding application) fragile.
type counters struct {
	jobsSubmitted     atomic.Uint64
	jobsCompleted     atomic.Uint64
	jobsFailed        atomic.Uint64
	jobsCancelled     atomic.Uint64
	jobsDeadline      atomic.Uint64
	jobsRejected      atomic.Uint64
	jobsShed          atomic.Uint64
	jobsThrottled     atomic.Uint64
	jobsRetried       atomic.Uint64
	jobsEvicted       atomic.Uint64
	journalErrors     atomic.Uint64
	recoveredQueued   atomic.Uint64
	recoveredRunning  atomic.Uint64
	recoveredTerminal atomic.Uint64
	queueDepth        atomic.Int64
}

// BreakerStatus is the wire view of one tester profile's circuit
// breaker in /v1/stats.
type BreakerStatus struct {
	State               retry.BreakerState `json:"state"`
	ConsecutiveFailures int                `json:"consecutive_failures"`
	RetryAfterSec       float64            `json:"retry_after_sec,omitempty"`
}

// Stats is the wire view of GET /v1/stats.
type Stats struct {
	JobsSubmitted     uint64                   `json:"jobs_submitted"`
	JobsCompleted     uint64                   `json:"jobs_completed"`
	JobsFailed        uint64                   `json:"jobs_failed"`
	JobsCancelled     uint64                   `json:"jobs_cancelled"`
	JobsDeadline      uint64                   `json:"jobs_deadline"`
	JobsRejected      uint64                   `json:"jobs_rejected"`
	JobsShed          uint64                   `json:"jobs_shed"`
	JobsThrottled     uint64                   `json:"jobs_throttled"`
	JobsRetried       uint64                   `json:"jobs_retried"`
	JobsEvicted       uint64                   `json:"jobs_evicted"`
	JournalErrors     uint64                   `json:"journal_errors"`
	RecoveredQueued   uint64                   `json:"recovered_queued"`
	RecoveredRunning  uint64                   `json:"recovered_running"`
	RecoveredTerminal uint64                   `json:"recovered_terminal"`
	QueueDepth        int64                    `json:"queue_depth"`
	TenantQueueDepth  map[string]int           `json:"tenant_queue_depth,omitempty"`
	RetryBudget       float64                  `json:"retry_budget"`
	CacheHits         uint64                   `json:"cache_hits"`
	CacheMisses       uint64                   `json:"cache_misses"`
	CacheEntries      int                      `json:"cache_entries"`
	Breakers          map[string]BreakerStatus `json:"breakers,omitempty"`
	// Cluster carries the coordinator's lease/handoff/steal counters
	// (via Options.ExtraStats); empty on a standalone or worker node.
	Cluster map[string]uint64 `json:"cluster,omitempty"`
	// HA carries the high-availability view (ha_role, peer lag,
	// failover counters) on nodes running under an HA pair; empty
	// elsewhere. Populated via Options.ExtraStats.
	HA map[string]any `json:"ha,omitempty"`
}

// Server owns the queue, cache, worker pool, job registry, durability
// journal and circuit breakers, and implements http.Handler with the
// /v1 API.
type Server struct {
	opts     Options
	mux      *http.ServeMux
	queue    *Queue
	cache    *Cache
	counters counters

	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	// Retention sweeper shutdown (only armed when opts.Retain > 0).
	evictStop chan struct{}
	evictOnce sync.Once

	mu     sync.Mutex
	jobs   map[string]*Job
	tokens map[string]string // submit token → job ID (idempotent dispatch)
	nextID uint64

	// Per-tenant queued-job counts (accepted into the queue, not yet
	// picked up by a worker) and the Retry-After jitter source.
	tmu         sync.Mutex
	tenantDepth map[string]int
	jitter      *retry.Jitter

	// Durability (nil journal when DataDir is unset). jmu serializes
	// appends against compaction; journalDead simulates power loss in
	// crash tests (records stop cold, no orderly finish records).
	journal     *journal.Journal
	jmu         sync.Mutex
	journalDead atomic.Bool
	recovering  atomic.Bool
	reenqueue   []*Job // journal-recovered jobs awaiting re-enqueue (Start)

	// Resilience: the server-wide retry token bucket and the per-tester-
	// profile circuit breakers.
	retryBudget *retry.Budget
	bmu         sync.Mutex
	breakers    map[string]*retry.Breaker

	// runHook, when non-nil, replaces execute — the deterministic test
	// seam for queue/cancellation/drain behavior without real flow runs.
	runHook func(ctx context.Context, j *Job) error
}

// New assembles a server; call Start to launch the worker pool. With
// DataDir set, New replays the journal synchronously — the registry is
// fully restored on return — while re-enqueueing and compaction happen
// in the background after Start (the readiness endpoint reports
// not-ready until they complete).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:        opts,
		mux:         http.NewServeMux(),
		queue:       NewQueue(opts.QueueSize),
		cache:       NewCache(),
		baseCtx:     ctx,
		cancelBase:  cancel,
		evictStop:   make(chan struct{}),
		jobs:        make(map[string]*Job),
		tokens:      make(map[string]string),
		tenantDepth: make(map[string]int),
		jitter:      retry.NewJitter(0x5E11A7E2),
		retryBudget: retry.NewBudget(opts.RetryBudget, 0),
		breakers:    make(map[string]*retry.Breaker),
	}
	if opts.DataDir != "" {
		if err := s.openJournal(opts.DataDir + "/journal"); err != nil {
			cancel()
			return nil, err
		}
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /healthz/live", s.handleHealth)
	s.mux.HandleFunc("GET /healthz/ready", s.handleReady)
	return s, nil
}

// Start launches the worker pool and, when a journal is wired, the
// recovery goroutine that re-enqueues interrupted jobs.
func (s *Server) Start() {
	s.wg.Add(s.opts.Workers)
	for i := 0; i < s.opts.Workers; i++ {
		go s.workerLoop()
	}
	if s.journal != nil {
		s.wg.Add(1)
		go s.finishRecovery()
	}
	if s.opts.Retain > 0 {
		s.wg.Add(1)
		go s.evictLoop()
	}
}

// evictLoop sweeps expired terminal jobs out of the registry (see
// Options.Retain).
func (s *Server) evictLoop() {
	defer s.wg.Done()
	interval := s.opts.Retain / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.evictStop:
			return
		case <-tick.C:
			s.evictExpired()
		}
	}
}

// evictExpired deletes jobs terminal for longer than Retain, together
// with their submit-token fence (the fence must not outlive the job:
// a token pointing at a deleted ID would make a re-sent dispatch 500
// instead of deduping — and once the retention horizon has passed, no
// legitimate re-send is coming).
func (s *Server) evictExpired() {
	cutoff := time.Now().Add(-s.opts.Retain)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		at, done := j.finishedAt()
		if !done || at.After(cutoff) {
			continue
		}
		delete(s.jobs, id)
		if tok := j.Spec.SubmitToken; tok != "" && s.tokens[tok] == id {
			delete(s.tokens, tok)
		}
		s.counters.jobsEvicted.Add(1)
	}
}

// breaker returns (creating on first use) the circuit breaker for a
// tester profile.
func (s *Server) breaker(profile string) *retry.Breaker {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	b, ok := s.breakers[profile]
	if !ok {
		b = retry.NewBreaker(retry.BreakerOptions{
			Threshold: s.opts.BreakerThreshold,
			Cooldown:  s.opts.BreakerCooldown,
		})
		s.breakers[profile] = b
	}
	return b
}

// breakerSnapshot copies the breaker map for stats and readiness.
func (s *Server) breakerSnapshot() map[string]*retry.Breaker {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	out := make(map[string]*retry.Breaker, len(s.breakers))
	for k, v := range s.breakers {
		out[k] = v
	}
	return out
}

// Drain shuts the service down gracefully: new submissions are rejected
// immediately, queued and running jobs are given until ctx expires to
// finish, then every remaining job's context is cancelled and Drain
// waits for the workers to unwind. The returned error is ctx's when the
// deadline forced cancellation, nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.evictOnce.Do(func() { close(s.evictStop) })
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		s.cancelBase()
	case <-ctx.Done():
		// Deadline hit: abort every in-flight job and wait for the
		// workers to observe the cancellation.
		s.cancelBase()
		<-done
		err = ctx.Err()
	}
	if s.journal != nil && !s.journalDead.Load() {
		s.jmu.Lock()
		_ = s.journal.Close()
		s.jmu.Unlock()
	}
	return err
}

// Cache exposes the artifact cache (for stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Job looks up a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Submit validates, registers and enqueues a job spec. It is the
// programmatic path behind POST /v1/jobs. A submission against a tester
// profile whose circuit breaker is open is shed with a shedError (HTTP:
// 503 + Retry-After) instead of being queued to fail. A spec carrying a
// SubmitToken already registered here returns the existing job instead
// of enqueueing a duplicate — the at-most-once fence a coordinator
// relies on when it re-sends a dispatch it is not sure arrived.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadSpec, err)
	}
	if spec.SubmitToken != "" {
		s.mu.Lock()
		id, ok := s.tokens[spec.SubmitToken]
		j := s.jobs[id]
		s.mu.Unlock()
		if ok && j != nil {
			return j, nil
		}
	}
	if s.opts.Admit != nil {
		if err := s.opts.Admit(spec); err != nil {
			var unavail *UnavailableError
			if errors.As(err, &unavail) {
				s.counters.jobsShed.Add(1)
			} else {
				s.counters.jobsThrottled.Add(1)
			}
			return nil, err
		}
	}
	if b := s.breaker(spec.Tester); !b.Allow() {
		s.counters.jobsShed.Add(1)
		return nil, &shedError{profile: spec.Tester, retryAfter: b.RetryAfter()}
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	if spec.SubmitToken != "" {
		// Re-check under the lock: a concurrent duplicate may have won.
		if id, ok := s.tokens[spec.SubmitToken]; ok {
			if j := s.jobs[id]; j != nil {
				s.mu.Unlock()
				cancel()
				return j, nil
			}
		}
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := newJob(id, spec, ctx, cancel)
	s.jobs[id] = j
	if spec.SubmitToken != "" {
		s.tokens[spec.SubmitToken] = id
	}
	s.mu.Unlock()

	if err := s.enqueueJournaled(j); err != nil {
		cancel()
		s.mu.Lock()
		delete(s.jobs, id)
		if spec.SubmitToken != "" {
			delete(s.tokens, spec.SubmitToken)
		}
		s.mu.Unlock()
		s.counters.jobsRejected.Add(1)
		return nil, err
	}
	s.counters.jobsSubmitted.Add(1)
	s.counters.queueDepth.Store(int64(s.queue.Depth()))
	s.tenantAdd(spec.Tenant, 1)
	return j, nil
}

// tenantAdd adjusts a tenant's queued-job count.
func (s *Server) tenantAdd(tenant string, delta int) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	s.tenantDepth[tenant] += delta
	if s.tenantDepth[tenant] <= 0 {
		delete(s.tenantDepth, tenant)
	}
}

// TenantDepths snapshots the per-tenant queued-job counts — what
// /v1/stats reports and what fair-share admission divides the queue by.
func (s *Server) TenantDepths() map[string]int {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := make(map[string]int, len(s.tenantDepth))
	for k, v := range s.tenantDepth {
		out[k] = v
	}
	return out
}

var errBadSpec = fmt.Errorf("service: invalid job spec")

// ThrottleError is a submission refused by the admission hook — a
// tenant over its quota or fair share. The HTTP layer maps it to 429
// with the (already jittered) Retry-After hint.
type ThrottleError struct {
	Tenant     string
	Reason     string // "quota" or "fair-share"
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("service: tenant %q throttled (%s), retry in %s",
		e.Tenant, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// UnavailableError is a submission refused because this node cannot
// currently admit work at all — an HA standby, or a coordinator still
// replaying or promoting. The HTTP layer maps it to 503 with the
// (already jittered) Retry-After hint so clients back off and retry the
// failover instead of seeing a connection refused.
type UnavailableError struct {
	Reason     string // "standby", "replaying" or "promoting"
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("service: node is %s and not admitting jobs, retry in %s",
		e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// shedError is a submission refused by an open circuit breaker.
type shedError struct {
	profile    string
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("service: tester profile %q is shedding load (circuit breaker open, retry in %s)",
		e.profile, e.retryAfter.Round(time.Millisecond))
}

// decodeSpec strictly decodes a submitted job spec: a key JobSpec does
// not have is an error, never silently ignored, so a misspelled option
// cannot run a job with the default in its place.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Sprintf("malformed job spec: %v", err))
		return
	}
	j, err := s.Submit(spec)
	var shed *shedError
	var throttled *ThrottleError
	var unavail *UnavailableError
	switch {
	case err == nil:
	case errors.Is(err, errBadSpec):
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrQueueFull):
		// The hint is jittered (decorrelated across rejections) so the
		// backlog does not come back in lockstep the moment the queue
		// frees up.
		w.Header().Set("Retry-After", RetryAfterSecs(s.jitter.Around(time.Second)))
		HTTPError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.As(err, &throttled):
		w.Header().Set("Retry-After", RetryAfterSecs(throttled.RetryAfter))
		HTTPError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.As(err, &unavail):
		w.Header().Set("Retry-After", RetryAfterSecs(unavail.RetryAfter))
		HTTPError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.As(err, &shed):
		// Jitter around the breaker's cooldown: never earlier than the
		// breaker would admit, spread out beyond it.
		w.Header().Set("Retry-After", RetryAfterSecs(s.jitter.Around(shed.retryAfter)))
		HTTPError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrQueueClosed):
		HTTPError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	WriteJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	j.Cancel()
	s.journalCancel(j)
	WriteJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// A reconnecting client presents the id of the last event it saw;
	// everything retained after it is replayed before live streaming.
	var afterSeq uint64
	resume := false
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		if n, err := strconv.ParseUint(lastID, 10, 64); err == nil {
			afterSeq, resume = n, true
		}
	}
	// Subscribe before the headers go out: a client may act on them at
	// once (start the job, say), and progress published between the
	// flush and a later subscription would reach no one.
	replay, sub := j.subscribe(afterSeq, resume)
	defer j.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for _, ev := range replay {
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	flusher.Flush()

	heartbeat := time.NewTicker(s.opts.Heartbeat)
	defer heartbeat.Stop()
	writeEvents := func() bool {
		for {
			select {
			case ev := <-sub:
				if err := writeSSE(w, ev); err != nil {
					return false
				}
			default:
				flusher.Flush()
				return true
			}
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			// SSE comment line: keeps intermediaries from timing the
			// stream out during long quiet stretches of a big job.
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-j.Done():
			// Drain whatever is buffered, then send the final snapshot —
			// even a subscriber that lost intermediate events always
			// observes the terminal state.
			writeEvents()
			st := j.Status()
			_ = writeSSE(w, Event{Seq: j.lastSeq(), Type: "result", State: st.State, Error: st.Error})
			flusher.Flush()
			return
		case ev := <-sub:
			if err := writeSSE(w, ev); err != nil {
				return
			}
			if !writeEvents() {
				return
			}
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	breakers := make(map[string]BreakerStatus)
	for name, b := range s.breakerSnapshot() {
		breakers[name] = BreakerStatus{
			State:               b.State(),
			ConsecutiveFailures: b.ConsecutiveFailures(),
			RetryAfterSec:       b.RetryAfter().Seconds(),
		}
	}
	st := Stats{
		JobsSubmitted:     s.counters.jobsSubmitted.Load(),
		JobsCompleted:     s.counters.jobsCompleted.Load(),
		JobsFailed:        s.counters.jobsFailed.Load(),
		JobsCancelled:     s.counters.jobsCancelled.Load(),
		JobsDeadline:      s.counters.jobsDeadline.Load(),
		JobsRejected:      s.counters.jobsRejected.Load(),
		JobsShed:          s.counters.jobsShed.Load(),
		JobsThrottled:     s.counters.jobsThrottled.Load(),
		JobsRetried:       s.counters.jobsRetried.Load(),
		JobsEvicted:       s.counters.jobsEvicted.Load(),
		JournalErrors:     s.counters.journalErrors.Load(),
		RecoveredQueued:   s.counters.recoveredQueued.Load(),
		RecoveredRunning:  s.counters.recoveredRunning.Load(),
		RecoveredTerminal: s.counters.recoveredTerminal.Load(),
		QueueDepth:        int64(s.queue.Depth()),
		TenantQueueDepth:  s.TenantDepths(),
		RetryBudget:       s.retryBudget.Remaining(),
		CacheHits:         s.cache.Hits(),
		CacheMisses:       s.cache.Misses(),
		CacheEntries:      s.cache.Len(),
		Breakers:          breakers,
	}
	if s.opts.ExtraStats != nil {
		s.opts.ExtraStats(&st)
	}
	WriteJSON(w, http.StatusOK, st)
}

// RetryAfterSecs renders a Retry-After header value: whole seconds,
// at least 1.
func RetryAfterSecs(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleHealth is the liveness probe (also served at /healthz/live): the
// process is up and the handler is reachable — nothing more.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": s.queue.Depth(),
	})
}

// handleReady is the readiness probe: 503 while journal recovery is
// still re-enqueueing interrupted jobs, and while any tester profile's
// circuit breaker is fully open (the service is alive but shedding).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.recovering.Load() {
		reasons = append(reasons, "journal recovery in progress")
	}
	for name, b := range s.breakerSnapshot() {
		if b.State() == retry.BreakerOpen {
			reasons = append(reasons, fmt.Sprintf("circuit breaker open for tester profile %q", name))
		}
	}
	if s.opts.ExtraReady != nil {
		reasons = append(reasons, s.opts.ExtraReady()...)
	}
	if len(reasons) > 0 {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "not_ready",
			"reasons": reasons,
		})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"queue_depth": s.queue.Depth(),
	})
}

// WriteJSON marshals v before committing the status line, so a value
// that cannot be encoded answers 500 with an error body instead of the
// intended status with an empty one.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.MarshalIndent(map[string]string{"error": "encode response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// HTTPError answers status with the error document {"error": msg}.
func HTTPError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}
