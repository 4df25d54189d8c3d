package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"superpose/internal/failpoint"
	"superpose/internal/journal"
)

// newJournaledServer assembles (without starting) a server whose journal
// lives under dir. Lifecycle is the test's responsibility: crash() or
// drainServer(), never both.
func newJournaledServer(t *testing.T, dir string, opts Options, hook func(ctx context.Context, j *Job) error) *Server {
	t.Helper()
	opts.DataDir = dir
	opts.NoSync = true
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.runHook = hook
	return s
}

// crash simulates power loss: journaling stops cold FIRST — so the jobs
// the workers are about to unwind leave no orderly finish records, just
// like a killed process — then the queue closes, every context dies,
// the workers are joined, and the journal's file handle drops.
func crash(t *testing.T, s *Server) {
	t.Helper()
	s.journalDead.Store(true)
	s.queue.Close()
	s.cancelBase()
	s.wg.Wait()
	s.jmu.Lock()
	_ = s.journal.Close()
	s.jmu.Unlock()
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitRunning polls until the job leaves the queue (or fails the test if
// it reaches a terminal state first — the fixture was too small to crash
// mid-run).
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		switch st := j.State(); {
		case st == StateRunning:
			return
		case st.Terminal():
			t.Fatalf("job %s finished (%s) before the crash landed", j.ID, st)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", j.ID)
}

func waitTerminal(t *testing.T, j *Job, want State) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never reached a terminal state (now %s)", j.ID, j.State())
	}
	st := j.Status()
	if st.State != want {
		t.Fatalf("job %s finished %q (err %q), want %q", j.ID, st.State, st.Error, want)
	}
	return st
}

// blockingHook parks every job until its context dies — the stand-in for
// a long certification run that a crash interrupts.
func blockingHook(ctx context.Context, j *Job) error {
	<-ctx.Done()
	return ctx.Err()
}

var quickSpec = JobSpec{Kind: KindDetect, Case: "s35932-T200"}

// TestCrashRecoveryBitIdenticalReport is the acceptance test of the
// durability layer: SIGKILL-grade interruption mid-run, restart on the
// same data dir, and the recovered job's report is bit-identical to an
// uninterrupted control run. A third boot then proves the finished job
// is never executed again — it is served from the journal.
func TestCrashRecoveryBitIdenticalReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline three times")
	}
	benchSrc := e2eBench(t)
	spec := JobSpec{Kind: KindDetect, Bench: benchSrc, Clean: true, Workers: 2}

	// Control: the same spec, uninterrupted, on a journal-less server.
	ctrl, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	cj, err := ctrl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, cj, StateDone)
	if want.Report == nil {
		t.Fatal("control run delivered no report")
	}
	wantJSON, err := json.Marshal(want.Report)
	if err != nil {
		t.Fatal(err)
	}
	drainServer(t, ctrl)

	// Boot 1: journaled, crashed mid-run.
	dir := t.TempDir()
	s1 := newJournaledServer(t, dir, Options{}, nil)
	s1.Start()
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j1)
	crash(t, s1)

	// Boot 2: the registry is restored synchronously by New — the job is
	// back, queued, with its pre-crash attempt on the books.
	s2 := newJournaledServer(t, dir, Options{}, nil)
	j2, ok := s2.Job(j1.ID)
	if !ok {
		t.Fatalf("job %s lost across the crash", j1.ID)
	}
	if st := j2.State(); st != StateQueued {
		t.Fatalf("recovered job state %q, want queued", st)
	}
	if got := j2.Attempts(); got != 1 {
		t.Errorf("recovered job carries %d attempts, want 1 (the interrupted run)", got)
	}
	if got := s2.counters.recoveredRunning.Load(); got != 1 {
		t.Errorf("recovered_running = %d, want 1", got)
	}
	s2.Start()
	got := waitTerminal(t, j2, StateDone)
	gotJSON, err := json.Marshal(got.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("recovered report differs from the uninterrupted control:\nrecovered: %s\ncontrol:   %s", gotJSON, wantJSON)
	}
	if got := j2.Attempts(); got != 2 {
		t.Errorf("recovered job finished with %d attempts, want 2", got)
	}
	if got := s2.counters.jobsCompleted.Load(); got != 1 {
		t.Errorf("boot 2 completed %d jobs, want exactly 1 — no duplicate execution", got)
	}
	drainServer(t, s2)

	// Boot 3: the job is terminal in the journal — it comes back done,
	// report intact, and nothing runs again.
	s3 := newJournaledServer(t, dir, Options{}, nil)
	j3, ok := s3.Job(j1.ID)
	if !ok {
		t.Fatalf("job %s lost after a graceful shutdown", j1.ID)
	}
	st3 := j3.Status()
	if st3.State != StateDone {
		t.Fatalf("job restored %q after graceful shutdown, want done", st3.State)
	}
	rep3, err := json.Marshal(st3.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep3, wantJSON) {
		t.Errorf("journal round-trip changed the report:\nrestored: %s\ncontrol:  %s", rep3, wantJSON)
	}
	if got := s3.counters.recoveredTerminal.Load(); got != 1 {
		t.Errorf("recovered_terminal = %d, want 1", got)
	}
	s3.Start()
	waitNotRecovering(t, s3)
	if got := s3.counters.jobsCompleted.Load(); got != 0 {
		t.Errorf("boot 3 executed %d jobs, want 0 — the finished job must be served, not re-run", got)
	}
	drainServer(t, s3)
}

func waitNotRecovering(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.recovering.Load() {
		if time.Now().After(deadline) {
			t.Fatal("recovery never completed")
		}
		time.Sleep(time.Millisecond)
	}
}

// journalLines renders every record of the journal under the data dir
// (type, job, attempt, state) in replay order. The segments are only
// read, never truncated.
func journalLines(dir string) []string {
	names, err := filepath.Glob(filepath.Join(dir, "journal", "wal-*.log"))
	if err != nil {
		return []string{err.Error()}
	}
	var lines []string
	for _, name := range names { // zero-padded, so lexical = replay order
		f, err := os.Open(name)
		if err != nil {
			lines = append(lines, err.Error())
			continue
		}
		for {
			payload, err := journal.ReadFrame(f)
			if err != nil {
				if err != io.EOF {
					lines = append(lines, filepath.Base(name)+": "+err.Error())
				}
				break
			}
			var rec journalRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				lines = append(lines, filepath.Base(name)+": undecodable record: "+err.Error())
				continue
			}
			lines = append(lines, fmt.Sprintf("%s: %s %s attempt=%d state=%q",
				filepath.Base(name), rec.Type, rec.ID, rec.Attempt, rec.State))
		}
		f.Close()
	}
	return lines
}

// TestCrashRecoverQueuedAndRunningJobs: a crash with one job mid-run and
// two still queued; the restart re-enqueues all three in submission
// order, finishes them, and allocates fresh IDs above the journal's
// floor (no reuse of a dead job's name).
func TestCrashRecoverQueuedAndRunningJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournaledServer(t, dir, Options{Workers: 1, QueueSize: 8}, blockingHook)
	// On any failure, log the records the restart replayed and every
	// job's state and attempts, so a rare miss names the missing or
	// extra record.
	cur, replayed := s1, []string(nil)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if replayed == nil { // failed before the restart
			replayed = journalLines(dir)
		}
		for _, l := range replayed {
			t.Log("journal " + l)
		}
		for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
			if j, ok := cur.Job(id); ok {
				t.Logf("job %s: state %s, attempts %d", id, j.State(), j.Attempts())
			}
		}
	})
	s1.Start()
	j1, err := s1.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j1)
	j2, err := s1.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := s1.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, s1)
	replayed = journalLines(dir)

	s2 := newJournaledServer(t, dir, Options{Workers: 1, QueueSize: 8},
		func(ctx context.Context, j *Job) error { return nil })
	cur = s2
	if got := s2.counters.recoveredRunning.Load(); got != 1 {
		t.Errorf("recovered_running = %d, want 1", got)
	}
	if got := s2.counters.recoveredQueued.Load(); got != 2 {
		t.Errorf("recovered_queued = %d, want 2", got)
	}
	s2.Start()
	for _, id := range []string{j1.ID, j2.ID, j3.ID} {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across the crash", id)
		}
		waitTerminal(t, j, StateDone)
	}
	r1, _ := s2.Job(j1.ID)
	if got := r1.Attempts(); got != 2 {
		t.Errorf("interrupted job finished with %d attempts, want 2", got)
	}

	// The ID allocator resumed past the journal's floor.
	j4, err := s2.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID != "job-4" {
		t.Errorf("post-recovery submission got ID %q, want job-4", j4.ID)
	}
	waitTerminal(t, j4, StateDone)
	drainServer(t, s2)
}

// TestCrashRecoverCancelHonored: a cancellation whose finish record the
// crash beat to disk is still honored on restart — the job comes back
// cancelled, not re-run.
func TestCrashRecoverCancelHonored(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournaledServer(t, dir, Options{Workers: 1}, blockingHook)
	s1.Start()
	j1, err := s1.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j1)
	j2, err := s1.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	// What DELETE /v1/jobs/{id} does: cancel, then journal the request.
	// The queued job finishes cancelled in memory, but the worker (stuck
	// on j1) never writes its finish record — then the power dies.
	j2.Cancel()
	s1.journalCancel(j2)
	crash(t, s1)

	s2 := newJournaledServer(t, dir, Options{Workers: 1},
		func(ctx context.Context, j *Job) error { return nil })
	r2, ok := s2.Job(j2.ID)
	if !ok {
		t.Fatalf("cancelled job %s lost across the crash", j2.ID)
	}
	st := r2.Status()
	if st.State != StateCancelled {
		t.Fatalf("cancelled job restored as %q, want cancelled", st.State)
	}
	if got := s2.counters.recoveredTerminal.Load(); got != 1 {
		t.Errorf("recovered_terminal = %d, want 1", got)
	}
	s2.Start()
	r1, _ := s2.Job(j1.ID)
	waitTerminal(t, r1, StateDone)
	waitNotRecovering(t, s2)
	if got := s2.counters.jobsCompleted.Load(); got != 1 {
		t.Errorf("boot 2 completed %d jobs, want 1 — the cancelled job must not run", got)
	}
	drainServer(t, s2)
}

// TestCrashRecoverAttemptsExhausted: a job that crashes the server on
// every attempt must not crash-loop forever — once the journal shows
// MaxAttempts interrupted starts, the restart declares it failed.
func TestCrashRecoverAttemptsExhausted(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, MaxAttempts: 2}

	s1 := newJournaledServer(t, dir, opts, blockingHook)
	s1.Start()
	j1, err := s1.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j1)
	crash(t, s1) // journal: submit, start(1)

	s2 := newJournaledServer(t, dir, opts, blockingHook)
	r2, ok := s2.Job(j1.ID)
	if !ok {
		t.Fatal("job lost after first crash")
	}
	s2.Start()
	waitRunning(t, r2)
	crash(t, s2) // journal: + start(2) — the budget is now spent

	s3 := newJournaledServer(t, dir, opts, blockingHook)
	r3, ok := s3.Job(j1.ID)
	if !ok {
		t.Fatal("job lost after second crash")
	}
	st := waitTerminal(t, r3, StateFailed) // terminal at restore; Done already closed
	if !strings.Contains(st.Error, "interrupted by crash on attempt 2/2") {
		t.Errorf("error %q does not attribute the crash-loop exhaustion", st.Error)
	}
	s3.Start()
	waitNotRecovering(t, s3)
	if got := s3.counters.jobsCompleted.Load(); got != 0 {
		t.Errorf("exhausted job still executed (%d completions)", got)
	}
	drainServer(t, s3)
}

// TestReadyDuringRecovery pins the liveness/readiness split across a
// restart: while journal replay is still re-enqueueing (stretched here
// by the "service/recovery" failpoint), /healthz/ready answers 503 and
// /healthz/live answers 200; once recovery completes, ready flips to
// 200 and the recovered job finishes.
func TestReadyDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournaledServer(t, dir, Options{Workers: 1}, blockingHook)
	s1.Start()
	j1, err := s1.Submit(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j1)
	crash(t, s1)

	if err := failpoint.Enable("service/recovery", "sleep(300ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisableAll)

	s2 := newJournaledServer(t, dir, Options{Workers: 1},
		func(ctx context.Context, j *Job) error { return nil })
	ts := httptest.NewServer(s2)
	defer ts.Close()

	// Restored but not yet replaying: alive, not ready.
	if code := probeCode(t, ts, "/healthz/ready"); code != http.StatusServiceUnavailable {
		t.Errorf("ready before recovery: HTTP %d, want 503", code)
	}
	if code := probeCode(t, ts, "/healthz/live"); code != http.StatusOK {
		t.Errorf("live before recovery: HTTP %d, want 200", code)
	}
	resp, err := http.Get(ts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Status != "not_ready" || len(body.Reasons) == 0 || !strings.Contains(body.Reasons[0], "recovery") {
		t.Errorf("not-ready body %+v does not name recovery", body)
	}

	s2.Start()
	// Mid-window (the failpoint holds recovery open): still not ready.
	if code := probeCode(t, ts, "/healthz/ready"); code != http.StatusServiceUnavailable {
		t.Errorf("ready during stretched recovery: HTTP %d, want 503", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for probeCode(t, ts, "/healthz/ready") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("readiness never recovered after replay")
		}
		time.Sleep(10 * time.Millisecond)
	}
	r1, _ := s2.Job(j1.ID)
	waitTerminal(t, r1, StateDone)
	drainServer(t, s2)
}

// TestCompactRecordsOnlyAcceptedJobs pins compaction to the journal's
// view of the registry. Submit registers a job before the queue takes
// it, so a compaction in that window — at boot, or an HA snapshot — must
// not write a submit for it: a job registered but not enqueued is
// absent, an enqueued one appears exactly once, and one the queue
// rejects never appears.
func TestCompactRecordsOnlyAcceptedJobs(t *testing.T) {
	s := newJournaledServer(t, t.TempDir(), Options{QueueSize: 1}, nil)
	defer crash(t, s)
	register := func(id string) *Job {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		j := newJob(id, JobSpec{Kind: KindDetect}, ctx, cancel)
		s.mu.Lock()
		s.jobs[id] = j
		s.mu.Unlock()
		return j
	}
	submits := func(id string) int {
		s.jmu.Lock()
		records := s.compactRecords()
		s.jmu.Unlock()
		n := 0
		for _, raw := range records {
			var rec journalRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Type == "submit" && rec.ID == id {
				n++
			}
		}
		return n
	}

	j1 := register("job-1")
	if n := submits("job-1"); n != 0 {
		t.Fatalf("registered, not enqueued: %d submit records, want 0", n)
	}
	if err := s.enqueueJournaled(j1); err != nil {
		t.Fatal(err)
	}
	if n := submits("job-1"); n != 1 {
		t.Fatalf("enqueued: %d submit records, want 1", n)
	}
	j2 := register("job-2")
	if err := s.enqueueJournaled(j2); err == nil {
		t.Fatal("a queue of one took a second job")
	}
	if n := submits("job-2"); n != 0 {
		t.Fatalf("rejected: %d submit records, want 0", n)
	}
}
