package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"superpose/internal/journal"
	"superpose/internal/service"
)

// fakeClock drives lease expiry deterministically: the expiry sweeper
// still ticks on real time, but whether a lease has lapsed is decided
// against this clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// startWorker boots a runner-backed worker service on an httptest
// listener. The runner replaces the real certification flow, so
// cluster mechanics are tested without burning CPU on ATPG.
func startWorker(t *testing.T, runner func(ctx context.Context, j *service.Job) error) (*service.Server, *httptest.Server) {
	t.Helper()
	svc, err := service.New(service.Options{QueueSize: 8, Workers: 2, Runner: runner})
	if err != nil {
		t.Fatalf("worker service: %v", err)
	}
	svc.Start()
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		dctx, cancel := context.WithCancel(context.Background())
		cancel() // cancelled budget: drain immediately, aborting in-flight jobs
		svc.Drain(dctx)
	})
	return svc, ts
}

// startCoordinator boots a coordinator on an httptest listener.
func startCoordinator(t *testing.T, opts Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return c, serveCoordinator(t, c)
}

// serveCoordinator starts c on an httptest listener.
func serveCoordinator(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	c.Start()
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		dctx, cancel := context.WithCancel(context.Background())
		cancel()
		c.Drain(dctx)
	})
	return ts
}

// registerWorker joins a worker to the coordinator over the real HTTP
// endpoint (no agent loop: tests heartbeat explicitly for determinism).
func registerWorker(t *testing.T, coordURL string, addr string) RegisterResponse {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{Addr: addr})
	resp, err := http.Post(coordURL+"/cluster/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}
	var lease RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatalf("register decode: %v", err)
	}
	return lease
}

func submitSpec(t *testing.T, coordURL string, spec string) (service.Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(coordURL+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st service.Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("submit decode: %v", err)
		}
	}
	resp.Body.Close()
	return st, resp
}

func getStatus(t *testing.T, base, id string) service.Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	return st
}

func waitState(t *testing.T, base, id string, want service.State, within time.Duration) service.Status {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func serverStats(t *testing.T, base string) service.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return st
}

const testSpec = `{"kind":"detect","case":"s35932-T200"}`

// waitWorkerCounter polls a worker's /v1/stats until the selected
// counter reaches 1 — how tests observe the worker-side job outcome
// without knowing its worker-local job ID.
func waitWorkerCounter(t *testing.T, workerURL, what string, sel func(service.Stats) uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sel(serverStats(t, workerURL)) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker-side job never %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterDispatchCompletes is the happy path: one worker, one job,
// dispatched over HTTP and adopted back.
func TestClusterDispatchCompletes(t *testing.T) {
	var runs atomic.Int64
	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error {
		runs.Add(1)
		return nil
	})
	_, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 16, Workers: 2},
		LeaseTTL:     time.Minute,
		PollInterval: 2 * time.Millisecond,
	})
	registerWorker(t, coord.URL, worker.URL)

	st, resp := submitSpec(t, coord.URL, testSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitState(t, coord.URL, st.ID, service.StateDone, 5*time.Second)
	if got := runs.Load(); got != 1 {
		t.Fatalf("worker ran job %d times, want 1", got)
	}
	stats := serverStats(t, coord.URL)
	if stats.Cluster["dispatches"] != 1 || stats.Cluster["workers_live"] != 1 {
		t.Fatalf("cluster stats = %v, want 1 dispatch on 1 live worker", stats.Cluster)
	}
}

// TestWorkerLostHandoff kills a worker's lease mid-job and requires the
// coordinator to hand the job to a survivor — exactly one completion,
// exactly one handoff journaled.
func TestWorkerLostHandoff(t *testing.T) {
	clk := newFakeClock()
	const ttl = 50 * time.Millisecond

	// The victim's runner parks until its context dies (the job never
	// finishes there); the survivor's completes immediately.
	victimStarted := make(chan struct{}, 1)
	var victimRuns, survivorRuns atomic.Int64
	_, victim := startWorker(t, func(ctx context.Context, j *service.Job) error {
		victimRuns.Add(1)
		select {
		case victimStarted <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	})

	c, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 16, Workers: 2},
		LeaseTTL:     ttl,
		PollInterval: 2 * time.Millisecond,
		Now:          clk.Now,
	})
	registerWorker(t, coord.URL, victim.URL)

	st, _ := submitSpec(t, coord.URL, testSpec)
	<-victimStarted

	// The survivor joins "after the outage": registering at the
	// advanced clock keeps its lease live while the victim's lapses on
	// the next sweep.
	_, survivor := startWorker(t, func(ctx context.Context, j *service.Job) error {
		survivorRuns.Add(1)
		return nil
	})
	clk.Advance(10 * ttl)
	registerWorker(t, coord.URL, survivor.URL)

	waitState(t, coord.URL, st.ID, service.StateDone, 5*time.Second)
	if v, s := victimRuns.Load(), survivorRuns.Load(); v != 1 || s != 1 {
		t.Fatalf("victim ran %d, survivor ran %d; want 1 and 1", v, s)
	}
	stats := serverStats(t, coord.URL)
	if stats.Cluster["handoffs"] != 1 {
		t.Fatalf("handoffs = %d, want 1", stats.Cluster["handoffs"])
	}
	if stats.Cluster["leases_expired"] < 1 {
		t.Fatalf("leases_expired = %d, want >= 1", stats.Cluster["leases_expired"])
	}
	if stats.Cluster["duplicate_results"] != 0 {
		t.Fatalf("duplicate_results = %d, want 0", stats.Cluster["duplicate_results"])
	}
	c.amu.Lock()
	completed := len(c.completed)
	c.amu.Unlock()
	if completed != 1 {
		t.Fatalf("completed jobs = %d, want exactly 1", completed)
	}
}

// TestLateHeartbeatFinishedJob is the lease-expiry edge case: the
// worker finishes the job but its heartbeat arrives too late to save
// the lease. The completed report must be adopted (exactly-once
// result), not discarded, and the job must not run anywhere else.
func TestLateHeartbeatFinishedJob(t *testing.T) {
	clk := newFakeClock()
	const ttl = 50 * time.Millisecond

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var runs atomic.Int64
	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error {
		runs.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return nil
	})

	// PollInterval is huge: the coordinator can only learn the outcome
	// through the grace poll its dead-lease path performs.
	_, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 16, Workers: 2},
		LeaseTTL:     ttl,
		PollInterval: time.Hour,
		Now:          clk.Now,
	})
	registerWorker(t, coord.URL, worker.URL)

	st, _ := submitSpec(t, coord.URL, testSpec)
	<-started

	// The worker finishes...
	close(release)
	waitWorkerCounter(t, worker.URL, "completed", func(s service.Stats) uint64 { return s.JobsCompleted })
	// ...and only then does its lease lapse (the heartbeat that would
	// have saved it never lands).
	clk.Advance(10 * ttl)

	got := waitState(t, coord.URL, st.ID, service.StateDone, 5*time.Second)
	if got.State != service.StateDone {
		t.Fatalf("job state = %q, want done", got.State)
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times, want exactly 1 (no double execution)", runs.Load())
	}
	stats := serverStats(t, coord.URL)
	if stats.Cluster["grace_poll_adopted"] != 1 {
		t.Fatalf("grace_poll_adopted = %d, want 1", stats.Cluster["grace_poll_adopted"])
	}
	if stats.Cluster["handoffs"] != 0 {
		t.Fatalf("handoffs = %d, want 0 (result was adopted, not re-run)", stats.Cluster["handoffs"])
	}
}

// TestCancelPropagates: cancelling the coordinator job aborts the
// worker-side job too.
func TestCancelPropagates(t *testing.T) {
	started := make(chan struct{}, 1)
	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	})
	_, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 16, Workers: 2},
		LeaseTTL:     time.Minute,
		PollInterval: 2 * time.Millisecond,
	})
	registerWorker(t, coord.URL, worker.URL)

	st, _ := submitSpec(t, coord.URL, testSpec)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, coord.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()

	waitState(t, coord.URL, st.ID, service.StateCancelled, 5*time.Second)
	waitWorkerCounter(t, worker.URL, "cancelled", func(s service.Stats) uint64 { return s.JobsCancelled })
}

// TestTenantQuotaThrottles: draining a tenant's token bucket turns
// into a 429 with a jittered Retry-After and a throttle counter tick.
func TestTenantQuotaThrottles(t *testing.T) {
	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error { return nil })
	_, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 16, Workers: 2},
		LeaseTTL:     time.Minute,
		PollInterval: 2 * time.Millisecond,
		TenantRate:   0.0001, // effectively no refill within the test
		TenantBurst:  2,
	})
	registerWorker(t, coord.URL, worker.URL)

	spec := `{"kind":"detect","case":"s35932-T200","tenant":"acme"}`
	for i := 0; i < 2; i++ {
		_, resp := submitSpec(t, coord.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d, want 202", i, resp.StatusCode)
		}
	}
	_, resp := submitSpec(t, coord.URL, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled submit: HTTP %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	stats := serverStats(t, coord.URL)
	if stats.JobsThrottled != 1 {
		t.Fatalf("jobs_throttled = %d, want 1", stats.JobsThrottled)
	}
}

// TestFairShareUnderContention: once the queue is half full, one
// tenant cannot take more than its share of the remaining slots while
// another tenant still gets in.
func TestFairShareUnderContention(t *testing.T) {
	// No workers registered: submissions pile up in the queue.
	_, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 8, Workers: 1},
		LeaseTTL:     time.Minute,
		PollInterval: 2 * time.Millisecond,
		TenantRate:   1000, // quota never binds; fair share does
		TenantBurst:  1000,
	})

	hoarder := `{"kind":"detect","case":"s35932-T200","tenant":"hog"}`
	var throttled bool
	for i := 0; i < 8; i++ {
		_, resp := submitSpec(t, coord.URL, hoarder)
		if resp.StatusCode == http.StatusTooManyRequests {
			throttled = true
			break
		}
	}
	if !throttled {
		t.Fatal("hoarding tenant was never fair-share throttled")
	}
	// A second tenant still gets a slot.
	_, resp := submitSpec(t, coord.URL, `{"kind":"detect","case":"s35932-T200","tenant":"small"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: HTTP %d, want 202", resp.StatusCode)
	}
	stats := serverStats(t, coord.URL)
	if stats.TenantQueueDepth["hog"] == 0 || stats.TenantQueueDepth["small"] != 1 {
		t.Fatalf("tenant depths = %v, want hog > 0 and small == 1", stats.TenantQueueDepth)
	}
}

// TestReadyReportsNoWorkers: a coordinator with zero live workers is
// alive but not ready, and says why.
func TestReadyReportsNoWorkers(t *testing.T) {
	_, coord := startCoordinator(t, Options{
		Service:  service.Options{QueueSize: 4, Workers: 1},
		LeaseTTL: time.Minute,
	})
	resp, err := http.Get(coord.URL + "/healthz/ready")
	if err != nil {
		t.Fatalf("ready: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready: HTTP %d, want 503", resp.StatusCode)
	}
	var body struct {
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("ready decode: %v", err)
	}
	found := false
	for _, r := range body.Reasons {
		if r == "no live cluster workers registered" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ready reasons = %v, want the no-workers reason", body.Reasons)
	}
}

// TestHeartbeatLifecycle exercises the membership protocol end to end:
// renewals succeed, stale leases 409, unknown workers 404.
func TestHeartbeatLifecycle(t *testing.T) {
	_, coord := startCoordinator(t, Options{
		Service:  service.Options{QueueSize: 4, Workers: 1},
		LeaseTTL: time.Minute,
	})
	lease := registerWorker(t, coord.URL, "http://127.0.0.1:1")

	beat := func(workerID, leaseID string) int {
		body, _ := json.Marshal(HeartbeatRequest{WorkerID: workerID, LeaseID: leaseID})
		resp, err := http.Post(coord.URL+"/cluster/v1/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := beat(lease.WorkerID, lease.LeaseID); code != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d, want 200", code)
	}
	if code := beat("w-999", "lease-999"); code != http.StatusNotFound {
		t.Fatalf("unknown worker heartbeat: HTTP %d, want 404", code)
	}
	// Re-registering at the same address supersedes the old lease.
	lease2 := registerWorker(t, coord.URL, "http://127.0.0.1:1")
	if code := beat(lease2.WorkerID, lease2.LeaseID); code != http.StatusOK {
		t.Fatalf("new lease heartbeat: HTTP %d, want 200", code)
	}
	if code := beat(lease.WorkerID, lease.LeaseID); code != http.StatusNotFound && code != http.StatusConflict {
		t.Fatalf("stale lease heartbeat: HTTP %d, want 404 or 409", code)
	}
}

// TestAgentReregistersAfterLeaseLoss runs the real agent loop against
// a coordinator whose lease it loses, and requires it to rejoin.
func TestAgentReregistersAfterLeaseLoss(t *testing.T) {
	c, coord := startCoordinator(t, Options{
		Service:  service.Options{QueueSize: 4, Workers: 1},
		LeaseTTL: 30 * time.Millisecond,
	})
	agent := NewAgent(AgentOptions{
		Coordinator: coord.URL,
		Addr:        "http://127.0.0.1:1",
		Logf:        t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); agent.Run(ctx) }()

	waitLive := func(want int, msg string) {
		deadline := time.Now().Add(5 * time.Second)
		for len(c.leases.live()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: live workers = %d, want %d", msg, len(c.leases.live()), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitLive(1, "initial registration")

	// Yank the lease out from under the agent; the next beat 404s and
	// the agent must re-register on its own.
	first := c.leases.live()[0].id
	c.leases.drop(first)
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := c.leases.live()
		if len(live) == 1 && live[0].id != first {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agent never re-registered after losing its lease")
		}
		time.Sleep(2 * time.Millisecond)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not exit on context cancel")
	}
	waitLive(0, "deregister on shutdown")
}

// crashAfterAssign dispatches one job through a coordinator journaling
// under opts.Service.DataDir to a worker that runs until release is
// closed, then "crashes" the coordinator once the confirming assign
// record is durable. It returns the job ID and the worker.
//
// Hour-scale lease and poll intervals in opts make the abandoned
// coordinator write nothing more after the assign, so this models a
// kill -9: journals end at submit/start/assign, with no finish record
// (which a drain would wrongly write).
func crashAfterAssign(t *testing.T, opts Options, release <-chan struct{}, runs *atomic.Int64) (string, *httptest.Server) {
	t.Helper()
	started := make(chan struct{}, 1)
	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error {
		runs.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	c1, err := New(opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	c1.Start()
	ts1 := httptest.NewServer(c1)
	registerWorker(t, ts1.URL, worker.URL)

	st, resp := submitSpec(t, ts1.URL, testSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	<-started
	// The worker can start before the dispatcher journals the confirming
	// assign record (the worker-side job ID). Crash only after it lands:
	// an intent-only record takes the token re-send path, whose await
	// would not poll again for the hour-long PollInterval.
	waitCond(t, 10*time.Second, "assign confirmed", func() bool {
		c1.amu.Lock()
		defer c1.amu.Unlock()
		return c1.lastAssign[st.ID].WorkerJob != ""
	})

	// "Crash": close the listener and abandon the coordinator without
	// draining. Its goroutines idle until the test exits.
	ts1.Close()
	return st.ID, worker
}

// restartOptions are the coordinator options of the restart tests.
func restartOptions(dir string) Options {
	return Options{
		Service:      service.Options{QueueSize: 16, Workers: 2, DataDir: dir, NoSync: true},
		LeaseTTL:     time.Hour,
		PollInterval: time.Hour,
	}
}

// TestCoordinatorRestartReclaimsResult: a coordinator that crashes
// while a worker runs a job must, on restart, collect that worker's
// finished result instead of re-running the job.
func TestCoordinatorRestartReclaimsResult(t *testing.T) {
	opts := restartOptions(t.TempDir())
	release := make(chan struct{})
	var runs atomic.Int64
	jobID, worker := crashAfterAssign(t, opts, release, &runs)

	// The worker finishes while the coordinator is down.
	close(release)
	waitWorkerCounter(t, worker.URL, "completed", func(s service.Stats) uint64 { return s.JobsCompleted })

	// Restart: the service journal re-enqueues the job, the cluster
	// journal points at the worker, and the result comes home.
	_, ts2 := startCoordinator(t, opts)
	registerWorker(t, ts2.URL, worker.URL)
	got := waitState(t, ts2.URL, jobID, service.StateDone, 10*time.Second)
	if got.State != service.StateDone {
		t.Fatalf("job state after restart = %q, want done", got.State)
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times across the restart, want exactly 1", runs.Load())
	}
	stats := serverStats(t, ts2.URL)
	if stats.Cluster["results_reclaimed"] != 1 {
		t.Fatalf("results_reclaimed = %d, want 1", stats.Cluster["results_reclaimed"])
	}
}

// TestCoordinatorRestartCompactsJournal: a restarted coordinator taps
// every replayed cluster-journal record, then rewrites the journal to
// the snapshot of the state it rebuilt, so later boots do not replay
// the register/intent/confirm history again. Reclaim still works from
// the compacted journal.
func TestCoordinatorRestartCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	opts := restartOptions(dir)
	release := make(chan struct{})
	var runs atomic.Int64
	jobID, worker := crashAfterAssign(t, opts, release, &runs)
	close(release)
	waitWorkerCounter(t, worker.URL, "completed", func(s service.Stats) uint64 { return s.JobsCompleted })

	history := clusterJournal(t, dir)
	var tapped atomic.Int64
	opts.ClusterJournalTap = func([]byte) { tapped.Add(1) }
	// Inspect before Start: once dispatchers run, the reclaim appends.
	c2, err := New(opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	// register + intent + confirm: the tap saw all of them, the rewrite
	// went untapped.
	if n := int(tapped.Load()); len(history) < 3 || n != len(history) {
		t.Fatalf("tapped %d replayed records of a %d-record journal, want all of them (≥3)", n, len(history))
	}
	var snapshot [][]byte
	c2.SnapshotClusterUnderJournalLock(func(records [][]byte) { snapshot = records })
	compacted := clusterJournal(t, dir)
	if len(snapshot) != 1 || len(compacted) != len(snapshot) {
		t.Fatalf("journal holds %d records after restart, want the %d-record snapshot", len(compacted), len(snapshot))
	}
	for i := range snapshot {
		if !bytes.Equal(compacted[i], snapshot[i]) {
			t.Fatalf("journal record %d = %s, want snapshot %s", i, compacted[i], snapshot[i])
		}
	}

	ts2 := serveCoordinator(t, c2)
	registerWorker(t, ts2.URL, worker.URL)
	if got := waitState(t, ts2.URL, jobID, service.StateDone, 10*time.Second); got.State != service.StateDone {
		t.Fatalf("job state after restart = %q, want done", got.State)
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times across the restart, want exactly 1", runs.Load())
	}
	if got := serverStats(t, ts2.URL).Cluster["results_reclaimed"]; got != 1 {
		t.Fatalf("results_reclaimed = %d, want 1", got)
	}
}

// clusterJournal reads the cluster journal under dataDir from a copy of
// its segment files, leaving the live journal untouched.
func clusterJournal(t *testing.T, dataDir string) [][]byte {
	t.Helper()
	src := filepath.Join(dataDir, "cluster")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jnl, records, err := journal.Open(dst, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	return records
}

// TestRemovedChannelKeyRejected: the job spec no longer has a
// "channel" key (power is the only side channel), and the strict spec
// decoder turns a spec that still carries one into HTTP 400 — from a
// standalone server and from the coordinator alike, before anything
// runs or is dispatched.
func TestRemovedChannelKeyRejected(t *testing.T) {
	var runs atomic.Int32
	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error {
		runs.Add(1)
		return nil
	})
	_, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 16, Workers: 2},
		LeaseTTL:     time.Minute,
		PollInterval: 2 * time.Millisecond,
	})
	registerWorker(t, coord.URL, worker.URL)

	for _, base := range []string{worker.URL, coord.URL} {
		for _, ch := range []string{"power", "fused"} {
			spec := `{"kind":"detect","case":"s35932-T200","channel":"` + ch + `"}`
			if _, resp := submitSpec(t, base, spec); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: channel %q: HTTP %d, want 400", base, ch, resp.StatusCode)
			}
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("a rejected spec ran %d times", n)
	}
}

// TestWriteJSONUnencodableAnswers500: the coordinator's responses follow
// the service's rule — an unencodable value answers 500 with an error
// body, never 200 with an empty body.
func TestWriteJSONUnencodableAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	service.WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body %q is not an error document (%v)", rec.Body.String(), err)
	}
}
