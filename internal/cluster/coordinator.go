package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"superpose/internal/core"
	"superpose/internal/failpoint"
	"superpose/internal/journal"
	"superpose/internal/retry"
	"superpose/internal/service"
)

// Options configures a Coordinator.
type Options struct {
	// Service configures the embedded service.Server that owns the
	// public /v1 API, the queue, the job registry and the durability
	// journal. Its Workers field is the number of concurrent dispatches
	// (default 8 — dispatching is cheap waiting, not computation); its
	// Runner, Admit, ExtraStats and ExtraReady hooks are owned by the
	// coordinator and overwritten.
	Service service.Options

	// LeaseTTL is how long a worker's lease lasts without a heartbeat
	// (default 10s). Agents beat at TTL/3.
	LeaseTTL time.Duration
	// PollInterval is how often a dispatcher polls its worker for job
	// status (default 100ms).
	PollInterval time.Duration
	// StealMargin is the in-flight skew (affinity worker minus the
	// least-loaded worker) at which a job is stolen from its affinity
	// shard (default 2; 0 disables stealing).
	StealMargin int

	// TenantRate and TenantBurst shape each tenant's admission token
	// bucket (defaults 8 jobs/s, burst 16).
	TenantRate  float64
	TenantBurst float64

	// Now is the clock (default time.Now) — injectable for lease tests.
	Now func() time.Time

	// ClusterJournalTap, when non-nil, observes every cluster-journal
	// record: replayed history during New (in order), then each record
	// durably appended afterwards. The HA replication hub hangs off
	// this, mirroring service.Options.JournalTap for the job journal.
	ClusterJournalTap func(payload []byte)

	// Admit, ExtraStats and ExtraReady chain with the coordinator's own
	// hooks (which own the underlying service.Options fields): Admit
	// runs BEFORE quota admission — the HA layer fences submissions on
	// a non-primary node here; ExtraStats and ExtraReady run after the
	// coordinator's, decorating what it produced.
	Admit      func(spec service.JobSpec) error
	ExtraStats func(*service.Stats)
	ExtraReady func() []string
}

func (o Options) withDefaults() Options {
	if o.Service.Workers <= 0 {
		o.Service.Workers = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.StealMargin < 0 {
		o.StealMargin = 0
	}
	if o.TenantRate <= 0 {
		o.TenantRate = 8
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// clusterCounters is the coordinator's instrumentation, exported into
// /v1/stats under the "cluster" object.
type clusterCounters struct {
	leasesGranted     atomic.Uint64
	leasesExpired     atomic.Uint64
	heartbeats        atomic.Uint64
	dispatches        atomic.Uint64
	handoffs          atomic.Uint64
	steals            atomic.Uint64
	resultsReclaimed  atomic.Uint64
	duplicateResults  atomic.Uint64
	journalErrors     atomic.Uint64
	deregistrations   atomic.Uint64
	dispatchRejected  atomic.Uint64 // worker refused a submission (429/503/error)
	gracePollAdopted  atomic.Uint64 // late-heartbeat worker had finished; result kept
	progressForwarded atomic.Uint64
}

// clusterRecord is one entry of the coordinator's cluster journal —
// the durable assignment history behind orphan handoff and restart
// reclaim.
type clusterRecord struct {
	Type      string `json:"type"` // register|assign|steal|handoff|complete|expire
	Job       string `json:"job,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Addr      string `json:"addr,omitempty"`
	WorkerJob string `json:"worker_job,omitempty"`
	// Token and Try fence dispatch idempotency: an assign record with a
	// Token but no WorkerJob is a durable INTENT written before the
	// dispatch RPC — after a crash in that window, reclaim re-sends the
	// submit with the same token and the worker dedupes. Try is the
	// placement counter the token derives from; replay restores it so a
	// restarted coordinator never reuses a token.
	Token string `json:"token,omitempty"`
	Try   int    `json:"try,omitempty"`
}

// Coordinator is the cluster's head node: it embeds a service.Server
// for everything client-facing and replaces its executor with a
// dispatch-to-worker path governed by leases.
type Coordinator struct {
	opts   Options
	svc    *service.Server
	mux    *http.ServeMux
	leases *leaseTable
	quotas *tenantQuotas
	jitter *retry.Jitter
	client *http.Client

	counters clusterCounters

	// Cluster journal (nil when the service journal is off too).
	jnl *journal.Journal
	jmu sync.Mutex

	// Assignment history: lastAssign is the journal's materialized
	// view for restart reclaim; completed guards exactly-once results.
	amu        sync.Mutex
	lastAssign map[string]clusterRecord
	completed  map[string]bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New assembles a coordinator. With Service.DataDir set, both the
// service journal (jobs) and the cluster journal (assignments) live
// under it, and New replays the cluster journal so jobs the service
// journal re-enqueues can be reclaimed from workers that survived a
// coordinator restart.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:       opts,
		mux:        http.NewServeMux(),
		leases:     newLeaseTable(opts.LeaseTTL, opts.Now),
		quotas:     newTenantQuotas(opts.TenantRate, opts.TenantBurst, opts.Now),
		jitter:     retry.NewJitter(0xC00D1417),
		client:     &http.Client{},
		lastAssign: make(map[string]clusterRecord),
		completed:  make(map[string]bool),
		stop:       make(chan struct{}),
	}
	if opts.Service.DataDir != "" {
		jnl, records, err := journal.Open(opts.Service.DataDir+"/cluster",
			journal.Options{NoSync: opts.Service.NoSync})
		if err != nil {
			return nil, fmt.Errorf("cluster: open journal: %w", err)
		}
		c.jnl = jnl
		if opts.ClusterJournalTap != nil {
			for _, rec := range records {
				opts.ClusterJournalTap(rec)
			}
		}
		c.replay(records)
		// Compact like the service journal does after recovery: the
		// rewrite holds only the state replay just rebuilt, so the next
		// boot or promotion does not replay this history again. It is
		// not tapped — the tap has already seen every replayed record.
		c.jmu.Lock()
		if err := c.jnl.Reset(c.clusterSnapshot()); err != nil {
			c.counters.journalErrors.Add(1)
		}
		c.jmu.Unlock()
	}

	svcOpts := opts.Service
	svcOpts.Runner = c.dispatch
	svcOpts.Admit = c.admit
	svcOpts.ExtraStats = c.extraStats
	svcOpts.ExtraReady = c.extraReady
	if opts.Admit != nil {
		svcOpts.Admit = func(spec service.JobSpec) error {
			if err := opts.Admit(spec); err != nil {
				return err
			}
			return c.admit(spec)
		}
	}
	if opts.ExtraStats != nil {
		svcOpts.ExtraStats = func(st *service.Stats) {
			c.extraStats(st)
			opts.ExtraStats(st)
		}
	}
	if opts.ExtraReady != nil {
		svcOpts.ExtraReady = func() []string {
			return append(c.extraReady(), opts.ExtraReady()...)
		}
	}
	svc, err := service.New(svcOpts)
	if err != nil {
		if c.jnl != nil {
			c.jnl.Close()
		}
		return nil, err
	}
	c.svc = svc

	c.mux.Handle("/", svc)
	c.mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	c.mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /cluster/v1/deregister", c.handleDeregister)
	c.mux.HandleFunc("GET /cluster/v1/workers", c.handleWorkers)
	return c, nil
}

// replay folds the cluster journal into the assignment history: the
// last assign per job wins, a complete retires the job for good.
func (c *Coordinator) replay(records [][]byte) {
	for _, payload := range records {
		var rec clusterRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			c.counters.journalErrors.Add(1)
			continue
		}
		switch rec.Type {
		case "assign":
			if rec.Job != "" {
				c.lastAssign[rec.Job] = rec
			}
		case "handoff", "expire":
			// The assignment died with the worker; nothing to reclaim.
			if rec.Job != "" {
				delete(c.lastAssign, rec.Job)
			}
		case "complete":
			if rec.Job != "" {
				c.completed[rec.Job] = true
				delete(c.lastAssign, rec.Job)
			}
		}
	}
}

// Start launches the embedded service's worker pool (each worker is a
// dispatcher here) and the lease-expiry sweeper.
func (c *Coordinator) Start() {
	c.svc.Start()
	c.wg.Add(1)
	go c.expiryLoop()
}

// Drain shuts the coordinator down: the service drains (dispatchers
// get cancelled, which best-effort-cancels their worker jobs), then
// the sweeper stops and the cluster journal closes.
func (c *Coordinator) Drain(ctx context.Context) error {
	err := c.svc.Drain(ctx)
	close(c.stop)
	c.wg.Wait()
	if c.jnl != nil {
		c.jmu.Lock()
		c.jnl.Close()
		c.jmu.Unlock()
	}
	return err
}

// Service exposes the embedded service.Server (for stats and tests).
func (c *Coordinator) Service() *service.Server { return c.svc }

// ServeHTTP implements http.Handler: the service /v1 API plus the
// /cluster/v1 membership endpoints.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// expiryLoop sweeps lapsed leases. Every expired worker is journaled;
// its dead channel (closed by the table) makes the dispatchers waiting
// on it hand their jobs off.
func (c *Coordinator) expiryLoop() {
	defer c.wg.Done()
	interval := c.opts.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			for _, w := range c.leases.expire() {
				c.counters.leasesExpired.Add(1)
				c.journalRec(clusterRecord{Type: "expire", Worker: w.id, Addr: w.addr})
			}
		}
	}
}

// admit is the service's admission hook: fair share first (no tenant
// may hoard a contended queue), then the tenant's token bucket. Both
// rejections carry jittered Retry-After hints.
func (c *Coordinator) admit(spec service.JobSpec) error {
	depths := c.svc.TenantDepths()
	total := 0
	for _, d := range depths {
		total += d
	}
	queueSize := c.opts.Service.QueueSize
	if queueSize <= 0 {
		queueSize = 16
	}
	if total*2 >= queueSize {
		// Divide by active+1, not active: even a lone tenant leaves
		// room for a newcomer on a contended queue.
		active := len(depths)
		if active < 1 {
			active = 1
		}
		share := queueSize / (active + 1)
		if share < 1 {
			share = 1
		}
		if depths[spec.Tenant] >= share {
			return &service.ThrottleError{
				Tenant:     spec.Tenant,
				Reason:     "fair-share",
				RetryAfter: c.jitter.Around(time.Second),
			}
		}
	}
	if wait, ok := c.quotas.admit(spec.Tenant); !ok {
		return &service.ThrottleError{
			Tenant:     spec.Tenant,
			Reason:     "quota",
			RetryAfter: c.jitter.Around(wait),
		}
	}
	return nil
}

// extraStats decorates /v1/stats with the cluster counters.
func (c *Coordinator) extraStats(st *service.Stats) {
	st.Cluster = map[string]uint64{
		"workers_live":       uint64(len(c.leases.live())),
		"leases_granted":     c.counters.leasesGranted.Load(),
		"leases_expired":     c.counters.leasesExpired.Load(),
		"heartbeats":         c.counters.heartbeats.Load(),
		"dispatches":         c.counters.dispatches.Load(),
		"handoffs":           c.counters.handoffs.Load(),
		"steals":             c.counters.steals.Load(),
		"results_reclaimed":  c.counters.resultsReclaimed.Load(),
		"duplicate_results":  c.counters.duplicateResults.Load(),
		"grace_poll_adopted": c.counters.gracePollAdopted.Load(),
		"deregistrations":    c.counters.deregistrations.Load(),
		"dispatch_rejected":  c.counters.dispatchRejected.Load(),
		"journal_errors":     c.counters.journalErrors.Load(),
	}
}

// extraReady contributes the cluster's not-ready reasons: a
// coordinator with no live workers is alive but cannot place work.
func (c *Coordinator) extraReady() []string {
	if len(c.leases.live()) == 0 {
		return []string{"no live cluster workers registered"}
	}
	return nil
}

// journalRec appends one cluster-journal record. Failures are counted
// and returned; most callers tolerate a lost record (availability over
// durability), but the assign-intent path must abort dispatch when the
// record that fences exactly-once cannot be made durable. A failed
// append is never tapped, so the replication stream stays aligned with
// what is actually on disk.
func (c *Coordinator) journalRec(rec clusterRecord) error {
	if c.jnl == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		c.counters.journalErrors.Add(1)
		return err
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if err := c.jnl.Append(payload); err != nil {
		c.counters.journalErrors.Add(1)
		return err
	}
	if c.opts.ClusterJournalTap != nil {
		// Under jmu: the tap observes records in durable append order.
		c.opts.ClusterJournalTap(payload)
	}
	return nil
}

// journalComplete retires a job exactly once. The false return flags a
// duplicate result (a second worker finishing a handed-off job after
// the first's result was adopted) — counted and discarded.
func (c *Coordinator) journalComplete(jobID, workerID string) bool {
	c.amu.Lock()
	if c.completed[jobID] {
		c.amu.Unlock()
		c.counters.duplicateResults.Add(1)
		return false
	}
	c.completed[jobID] = true
	delete(c.lastAssign, jobID)
	c.amu.Unlock()
	c.journalRec(clusterRecord{Type: "complete", Job: jobID, Worker: workerID})
	return true
}

// SnapshotClusterUnderJournalLock rebuilds the cluster journal's
// logical state — one assign record per reclaimable assignment, one
// complete per retired job — and hands it to fn while holding the
// journal append lock, so every record tapped after fn returns strictly
// follows the snapshot. The HA hub rebases a fresh follower's stream
// from it when the record history before the follower's offset has been
// trimmed.
func (c *Coordinator) SnapshotClusterUnderJournalLock(fn func(records [][]byte)) {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	fn(c.clusterSnapshot())
}

// clusterSnapshot marshals the materialized assignment view in a
// deterministic (sorted) order. Replaying it yields the same
// lastAssign/completed state as replaying the full record history.
func (c *Coordinator) clusterSnapshot() [][]byte {
	c.amu.Lock()
	defer c.amu.Unlock()
	var records [][]byte
	appendRec := func(rec clusterRecord) {
		payload, err := json.Marshal(rec)
		if err != nil {
			c.counters.journalErrors.Add(1)
			return
		}
		records = append(records, payload)
	}
	for _, id := range sortedKeys(c.lastAssign) {
		appendRec(c.lastAssign[id])
	}
	for _, id := range sortedKeys(c.completed) {
		appendRec(clusterRecord{Type: "complete", Job: id})
	}
	return records
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reclaimFor hands out (once) the job's pre-restart assignment.
func (c *Coordinator) reclaimFor(jobID string) (clusterRecord, bool) {
	c.amu.Lock()
	defer c.amu.Unlock()
	rec, ok := c.lastAssign[jobID]
	if ok {
		delete(c.lastAssign, jobID)
	}
	return rec, ok
}

// recordAssign journals an assignment and updates the materialized
// view. With workerJob == "" it is the durable intent written BEFORE
// the dispatch RPC; the confirming record (same token, worker-side ID
// filled in) follows once the worker accepts. journalRec fsyncs before
// returning, so the intent is on disk before the RPC leaves — and the
// journal append comes first, so a failed append leaves no in-memory
// assignment that disk does not back.
func (c *Coordinator) recordAssign(jobID string, w *workerNode, workerJob, token string, try int) error {
	rec := clusterRecord{Type: "assign", Job: jobID, Worker: w.id, Addr: w.addr,
		WorkerJob: workerJob, Token: token, Try: try}
	if err := c.journalRec(rec); err != nil {
		return err
	}
	c.amu.Lock()
	c.lastAssign[jobID] = rec
	c.amu.Unlock()
	return nil
}

// ---------------------------------------------------------------------
// Membership endpoints
// ---------------------------------------------------------------------

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := failpoint.Inject("cluster/lease/grant"); err != nil {
		service.HTTPError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Addr == "" {
		service.HTTPError(w, http.StatusBadRequest, "register: non-empty addr required")
		return
	}
	node, superseded := c.leases.register(req.Addr)
	c.counters.leasesGranted.Add(1)
	if superseded != nil {
		// The old incarnation's dispatchers hand off via its dead
		// channel; nothing else to do here.
		c.journalRec(clusterRecord{Type: "expire", Worker: superseded.id, Addr: superseded.addr})
	}
	c.journalRec(clusterRecord{Type: "register", Worker: node.id, Addr: node.addr})
	service.WriteJSON(w, http.StatusOK, RegisterResponse{
		WorkerID: node.id,
		LeaseID:  node.leaseID,
		TTLSec:   c.opts.LeaseTTL.Seconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := failpoint.Inject("cluster/lease/renew"); err != nil {
		service.HTTPError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		service.HTTPError(w, http.StatusBadRequest, "heartbeat: malformed body")
		return
	}
	ttl, err := c.leases.heartbeat(req.WorkerID, req.LeaseID)
	switch {
	case errors.Is(err, ErrUnknownWorker):
		service.HTTPError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, ErrLeaseSuperseded):
		service.HTTPError(w, http.StatusConflict, err.Error())
		return
	}
	c.counters.heartbeats.Add(1)
	service.WriteJSON(w, http.StatusOK, HeartbeatResponse{TTLSec: ttl.Seconds()})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		service.HTTPError(w, http.StatusBadRequest, "deregister: malformed body")
		return
	}
	if node := c.leases.drop(req.WorkerID); node != nil {
		c.counters.deregistrations.Add(1)
		c.journalRec(clusterRecord{Type: "expire", Worker: node.id, Addr: node.addr})
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "bye"})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	now := c.opts.Now()
	var views []WorkerView
	for _, n := range c.leases.live() {
		c.leases.mu.Lock()
		inflight, expires := n.inflight, n.expires
		c.leases.mu.Unlock()
		views = append(views, WorkerView{
			ID:                n.id,
			Addr:              n.addr,
			InFlight:          inflight,
			LeaseRemainingSec: expires.Sub(now).Seconds(),
		})
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"workers": views})
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

// errWorkerLost is the dispatcher's internal signal that its worker's
// lease died (or the worker stopped answering) mid-job — the job hands
// off to another worker.
var errWorkerLost = errors.New("cluster: worker lost mid-job")

// dispatch is the service Runner hook: it drives one coordinator job
// to completion by placing it on a worker and adopting the result,
// handing off (re-placing) as many times as worker deaths demand. The
// handoff loop lives here rather than in the service retry loop so a
// worker crash never burns one of the job's failure attempts.
func (c *Coordinator) dispatch(ctx context.Context, j *service.Job) error {
	c.counters.dispatches.Add(1)
	key := j.Spec.ContentKey()
	try := 0

	// A restarted coordinator may find the job still running on (or
	// already finished by) a worker that survived the outage — or an
	// assign intent whose dispatch RPC it is not sure arrived.
	if rec, ok := c.reclaimFor(j.ID); ok {
		try = rec.Try
		if rec.WorkerJob != "" || (rec.Token != "" && rec.Addr != "") {
			done, err := c.tryReclaim(ctx, j, rec)
			if done {
				return err
			}
		}
	}

	for {
		node, stole := c.pickWorker(ctx, key)
		if node == nil {
			return ctx.Err()
		}
		if stole {
			c.counters.steals.Add(1)
			c.journalRec(clusterRecord{Type: "steal", Job: j.ID, Worker: node.id})
		}
		// Exactly-once fence, in order: (1) the assign intent with its
		// idempotency token goes durably to the cluster journal, (2) the
		// dispatch RPC carries the token, (3) the confirming record adds
		// the worker-side job ID. A crash after (2) leaves the intent on
		// disk, and recovery re-sends the same token — the worker dedupes
		// instead of double-running. When the intent itself cannot be made
		// durable, the RPC must not leave: a crash inside that window
		// would orphan a worker-side run with no record to reclaim it by.
		try++
		token := fmt.Sprintf("%s#%d", j.ID, try)
		if err := c.recordAssign(j.ID, node, "", token, try); err != nil {
			c.leases.release(node)
			return fmt.Errorf("cluster: assign intent not durable, refusing to dispatch: %w", err)
		}
		spec := j.Spec
		spec.SubmitToken = token
		workerJob, err := c.submitTo(ctx, node, spec)
		if err != nil {
			c.leases.release(node)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// The worker refused (full queue, drain, chaos) or died at
			// submission: brief pause, then place elsewhere.
			c.counters.dispatchRejected.Add(1)
			if retry.Sleep(ctx, c.opts.PollInterval) != nil {
				return ctx.Err()
			}
			continue
		}
		// Chaos window: an armed sleep here stretches the gap between the
		// accepted dispatch and its confirming record — the kill-primary
		// regression SIGKILLs inside it. An error spec only widens the
		// window too (the confirm below still runs). A failed confirm
		// append is tolerable — the durable intent already fences the
		// token, so recovery re-resolves the assignment — and the job is
		// live on the worker, so aborting here would only orphan it.
		_ = failpoint.Inject("cluster/assign/confirm")
		_ = c.recordAssign(j.ID, node, workerJob, token, try)

		err = c.await(ctx, j, node, workerJob)
		c.leases.release(node)
		switch {
		case errors.Is(err, errWorkerLost):
			c.counters.handoffs.Add(1)
			c.journalRec(clusterRecord{Type: "handoff", Job: j.ID, Worker: node.id})
			// The handoff failpoint lets the chaos harness stretch or
			// perturb the re-placement window.
			if ferr := failpoint.Inject("cluster/handoff"); ferr != nil {
				if retry.Sleep(ctx, c.opts.PollInterval) != nil {
					return ctx.Err()
				}
			}
			continue
		case err == nil:
			c.journalComplete(j.ID, node.id)
			return nil
		default:
			return err
		}
	}
}

// pickWorker blocks until a live worker exists (or ctx dies), then
// routes by affinity/steal. The steal failpoint disables stealing
// while armed, so chaos runs can force skewed routing.
func (c *Coordinator) pickWorker(ctx context.Context, key string) (*workerNode, bool) {
	for {
		allowSteal := failpoint.Inject("cluster/steal") == nil
		node, stole := c.leases.pick(key, c.opts.StealMargin, allowSteal)
		if node != nil {
			return node, stole
		}
		wake := c.leases.waitCh()
		select {
		case <-ctx.Done():
			return nil, false
		case <-wake:
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// submitTo places a job spec on a worker, returning the worker-side
// job ID. It runs on its own bounded context, NOT the job's: the
// worker may start executing before the 202 is read, so cancelling the
// request mid-flight would orphan a running worker-side job whose ID
// the coordinator never learned. Letting the submission resolve means
// a concurrent cancel is handled by await's ctx.Done path, which knows
// the ID and aborts the job remotely.
func (c *Coordinator) submitTo(ctx context.Context, node *workerNode, spec service.JobSpec) (string, error) {
	if err := failpoint.Inject("cluster/dispatch/submit"); err != nil {
		return "", err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, node.addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("cluster: worker %s refused job: HTTP %d: %s", node.id, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("cluster: worker %s: malformed submit response: %w", node.id, err)
	}
	return st.ID, nil
}

// await polls the worker for the job until it reaches a terminal
// state, forwarding progress to the coordinator job's subscribers.
// When the worker's lease dies mid-wait, one grace poll decides the
// edge case of a worker that finished but heartbeated late: a terminal
// result found there is adopted (exactly-once result), anything else
// is a handoff.
func (c *Coordinator) await(ctx context.Context, j *service.Job, node *workerNode, workerJob string) error {
	tick := time.NewTicker(c.opts.PollInterval)
	defer tick.Stop()
	var lastProgress core.Progress
	failures := 0
	for {
		select {
		case <-ctx.Done():
			// Cancellation or deadline on the coordinator: abort the
			// worker-side job so it stops burning cycles.
			c.cancelOn(node.addr, workerJob)
			return ctx.Err()

		case <-node.Dead():
			if st, err := c.pollOnce(ctx, node.addr, workerJob); err == nil && st.State.Terminal() {
				c.counters.gracePollAdopted.Add(1)
				return c.adopt(ctx, j, st)
			}
			return errWorkerLost

		case <-tick.C:
			st, err := c.pollOnce(ctx, node.addr, workerJob)
			if err != nil {
				if ctx.Err() != nil {
					// Cancelled between the select and the poll: same
					// exit as the ctx.Done case.
					c.cancelOn(node.addr, workerJob)
					return ctx.Err()
				}
				// Don't wait out the full lease TTL on a connection
				// that is actively refusing: three straight poll
				// failures declare the worker lost.
				if failures++; failures >= 3 {
					return errWorkerLost
				}
				continue
			}
			failures = 0
			if st.Progress != nil && *st.Progress != lastProgress {
				lastProgress = *st.Progress
				c.counters.progressForwarded.Add(1)
				j.PublishProgress(lastProgress)
			}
			if st.State.Terminal() {
				return c.adopt(ctx, j, st)
			}
		}
	}
}

// pollOnce fetches one worker-side job status.
func (c *Coordinator) pollOnce(ctx context.Context, addr, workerJob string) (service.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/jobs/"+workerJob, nil)
	if err != nil {
		return service.Status{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return service.Status{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return service.Status{}, fmt.Errorf("cluster: poll %s: HTTP %d", workerJob, resp.StatusCode)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.Status{}, err
	}
	return st, nil
}

// cancelOn best-effort aborts a worker-side job (fresh context: the
// caller's is already dead).
func (c *Coordinator) cancelOn(addr, workerJob string) {
	cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodDelete, addr+"/v1/jobs/"+workerJob, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// adopt maps a worker-side terminal status onto the coordinator job.
// The reports round-trip bit-for-bit (core/wire.go), so the artifact
// the coordinator serves is byte-identical to the worker's.
func (c *Coordinator) adopt(ctx context.Context, j *service.Job, st service.Status) error {
	switch st.State {
	case service.StateDone:
		j.SetResult(st.Report, st.LotReport)
		j.SetCacheHit(st.CacheHit)
		return nil
	case service.StateFailed:
		return fmt.Errorf("cluster: worker job failed: %s", st.Error)
	case service.StateDeadline:
		// Propagate as a deadline so the service classifies the
		// coordinator job "deadline" too.
		return fmt.Errorf("cluster: worker job hit its deadline (%s): %w", st.Error, context.DeadlineExceeded)
	case service.StateCancelled:
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("cluster: worker job cancelled remotely: %s", st.Error)
	default:
		return fmt.Errorf("cluster: worker job in unexpected terminal state %q", st.State)
	}
}

// tryReclaim resolves a pre-restart assignment. done=true means the
// job needs no fresh dispatch: its result was adopted (reclaimed or
// re-attached), or it failed remotely. done=false falls through to a
// normal dispatch — after best-effort cancelling the old worker-side
// job so a zombie cannot produce a duplicate execution.
func (c *Coordinator) tryReclaim(ctx context.Context, j *service.Job, rec clusterRecord) (done bool, err error) {
	if rec.WorkerJob == "" {
		// An intent without a confirmed worker-side ID: the coordinator
		// died between the dispatch RPC and its confirming record. The
		// token resolves the ambiguity — re-send the submit with the SAME
		// token to the recorded worker: it dedupes onto the in-flight job
		// if the RPC had arrived, or starts the job if it never did.
		node := c.waitAddr(ctx, rec.Addr)
		if node == nil {
			return false, nil // worker gone for good: fresh dispatch
		}
		spec := j.Spec
		spec.SubmitToken = rec.Token
		workerJob, serr := c.submitTo(ctx, node, spec)
		if serr != nil {
			c.leases.release(node)
			return false, nil
		}
		return c.reattach(ctx, j, node, workerJob, rec)
	}

	st, perr := c.pollOnce(ctx, rec.Addr, rec.WorkerJob)
	if perr != nil {
		// The old worker is unreachable (or forgot the job): normal
		// dispatch, nothing to cancel.
		return false, nil
	}
	if st.State.Terminal() {
		c.counters.resultsReclaimed.Add(1)
		err = c.adopt(ctx, j, st)
		c.journalComplete(j.ID, rec.Worker)
		return true, err
	}
	// Still running over there. If the worker re-registers (a promoted
	// standby's workers rotate over within a heartbeat interval — wait
	// for them rather than killing live work), re-attach and await its
	// result; otherwise cancel the zombie and start fresh.
	if node := c.waitAddr(ctx, rec.Addr); node != nil {
		return c.reattach(ctx, j, node, rec.WorkerJob, rec)
	}
	c.cancelOn(rec.Addr, rec.WorkerJob)
	return false, nil
}

// reattach is the shared tail of both reclaim paths: it records the
// assignment of workerJob on node under rec's token, awaits the result
// and settles it. A lost worker is a handoff (done=false: dispatch
// afresh); any other outcome resolves the job. A failed confirm append
// is tolerated — the intent or earlier assignment is already durable
// under the same token.
func (c *Coordinator) reattach(ctx context.Context, j *service.Job, node *workerNode, workerJob string, rec clusterRecord) (done bool, err error) {
	_ = c.recordAssign(j.ID, node, workerJob, rec.Token, rec.Try)
	err = c.await(ctx, j, node, workerJob)
	c.leases.release(node)
	if errors.Is(err, errWorkerLost) {
		c.counters.handoffs.Add(1)
		c.journalRec(clusterRecord{Type: "handoff", Job: j.ID, Worker: node.id})
		return false, nil
	}
	if err == nil {
		c.counters.resultsReclaimed.Add(1)
		c.journalComplete(j.ID, node.id)
	}
	return true, err
}

// waitAddr returns the live member at addr, waiting up to one lease
// TTL for it to (re-)register — after a failover, surviving workers
// rotate to the promoted coordinator within a heartbeat interval, and
// reclaim must not mistake that gap for a dead worker. The returned
// node has its inflight count raised; callers release it.
func (c *Coordinator) waitAddr(ctx context.Context, addr string) *workerNode {
	deadline := time.NewTimer(c.opts.LeaseTTL)
	defer deadline.Stop()
	for {
		if node := c.leases.findAddr(addr); node != nil {
			c.leases.mu.Lock()
			node.inflight++
			c.leases.mu.Unlock()
			return node
		}
		wake := c.leases.waitCh()
		select {
		case <-ctx.Done():
			return nil
		case <-deadline.C:
			return nil
		case <-wake:
		case <-time.After(50 * time.Millisecond):
		}
	}
}
