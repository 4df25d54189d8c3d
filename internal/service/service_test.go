package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"superpose/internal/core"
)

func progressEvent(stage string, step, total int) core.Progress {
	return core.Progress{Stage: core.Stage(stage), Step: step, Total: total}
}

// newTestServer builds a started server whose jobs run hook instead of
// the real pipeline, wrapped in an httptest HTTP front end.
func newTestServer(t *testing.T, opts Options, hook func(ctx context.Context, j *Job) error) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.runHook = hook
	s.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (int, Status) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	}
	return resp.StatusCode, st
}

// waitBudget bounds waitState's polling. Natively every test job ends
// well inside 10 s; under the race detector a 2-die lot alone takes
// ~20 s on 2 vCPUs, and longer while another package's race suite
// shares the CPUs, so the budget scales with the detector.
func waitBudget() time.Duration {
	budget := 10 * time.Second
	if raceEnabled {
		budget *= 10
	}
	return budget
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(waitBudget())
	for time.Now().Before(deadline) {
		code, st := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State.Terminal() {
			if st.State != want {
				t.Fatalf("job %s finished %q (err %q), want %q", id, st.State, st.Error, want)
			}
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

const detectBody = `{"kind":"detect","case":"s35932-T200","scale":0.05}`

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(ctx context.Context, j *Job) error {
		j.PublishProgress(progressEvent("calibrate", 1, 1))
		return nil
	})
	resp, st := postJob(t, ts, detectBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.ID == "" || st.Kind != KindDetect {
		t.Fatalf("submit response %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if final.Error != "" {
		t.Errorf("done job carries error %q", final.Error)
	}
}

func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(ctx context.Context, j *Job) error { return nil })
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed json", `{"kind":`},
		{"unknown field", `{"kind":"detect","case":"s35932-T200","bogus":1}`},
		{"bad kind", `{"kind":"frobnicate","case":"s35932-T200"}`},
		{"no design", `{"kind":"detect"}`},
		{"both designs", `{"kind":"detect","case":"s35932-T200","bench":"INPUT(a)"}`},
		{"unknown case", `{"kind":"detect","case":"nope-T1"}`},
		{"bad scale", `{"kind":"detect","case":"s35932-T200","scale":7}`},
		{"infect with case", `{"kind":"detect","case":"s35932-T200","infect":2}`},
		{"bad tester", `{"kind":"detect","case":"s35932-T200","tester":"volcano"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJob(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{}, func(ctx context.Context, j *Job) error { return nil })
	if code, _ := getStatus(t, ts, "job-999"); code != http.StatusNotFound {
		t.Errorf("GET missing job: HTTP %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE missing job: HTTP %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/job-999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events of missing job: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestQueueFull429(t *testing.T) {
	block := make(chan struct{})
	_, ts := newTestServer(t, Options{QueueSize: 2, Workers: 1}, func(ctx context.Context, j *Job) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	// One job occupies the worker; two fill the queue. The exact moment
	// the worker picks up the first job races with the submissions, so
	// submit until the first rejection and verify it is a clean 429.
	var rejected *http.Response
	for i := 0; i < 5 && rejected == nil; i++ {
		resp, _ := postJob(t, ts, detectBody)
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("queue of size 2 accepted 5 jobs with a blocked worker")
	}
	close(block)
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	_, ts := newTestServer(t, Options{}, func(ctx context.Context, j *Job) error {
		started <- struct{}{}
		<-ctx.Done() // a well-behaved pipeline returns the context error
		return ctx.Err()
	})
	_, st := postJob(t, ts, detectBody)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	final := waitState(t, ts, st.ID, StateCancelled)
	if !strings.Contains(final.Error, context.Canceled.Error()) {
		t.Errorf("cancelled job error = %q, want context.Canceled", final.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, ts := newTestServer(t, Options{QueueSize: 4, Workers: 1}, func(ctx context.Context, j *Job) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	_, first := postJob(t, ts, detectBody) // occupies the worker
	_, queued := postJob(t, ts, detectBody)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A queued job cancels immediately — no worker involvement.
	if st := waitState(t, ts, queued.ID, StateCancelled); st.State != StateCancelled {
		t.Errorf("queued job state %q", st.State)
	}
	_ = first
}

func TestDrainCompletesBacklog(t *testing.T) {
	var ran int
	done := make(chan struct{}, 8)
	s, err := New(Options{QueueSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.runHook = func(ctx context.Context, j *Job) error {
		ran++
		done <- struct{}{}
		return nil
	}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(JobSpec{Kind: KindDetect, Case: "s35932-T200"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Start() // start after submit so the backlog is genuinely queued
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Errorf("job %s drained into state %q, want done", j.ID, st)
		}
	}
	if ran != 3 {
		t.Errorf("ran %d jobs, want 3", ran)
	}
	// Submissions after drain are refused.
	if _, err := s.Submit(JobSpec{Kind: KindDetect, Case: "s35932-T200"}); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("post-drain submit error = %v, want ErrQueueClosed", err)
	}
}

func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	s.runHook = func(ctx context.Context, j *Job) error {
		close(started)
		<-ctx.Done() // simulates a pipeline that only stops on cancellation
		return ctx.Err()
	}
	s.Start()
	j, err := s.Submit(JobSpec{Kind: KindDetect, Case: "s35932-T200"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error = %v, want deadline exceeded", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Errorf("in-flight job state after forced drain = %q, want cancelled", st)
	}
}

// TestEventsStream drives a scripted job and asserts the SSE wire
// format: a state snapshot, the published progress events in order, and
// a final result event.
func TestEventsStream(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{}, func(ctx context.Context, j *Job) error {
		<-release // hold until the subscriber is attached
		for i := 1; i <= 3; i++ {
			j.PublishProgress(progressEvent("adaptive", i, 3))
		}
		return nil
	})
	_, st := postJob(t, ts, detectBody)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	close(release)

	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Type == "result" {
			break
		}
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want snapshot + progress + result", len(events))
	}
	last := events[len(events)-1]
	if last.Type != "result" || last.State != StateDone {
		t.Errorf("final event %+v, want done result", last)
	}
	var steps []int
	for _, ev := range events {
		if ev.Type == "progress" && ev.Progress != nil {
			steps = append(steps, ev.Progress.Step)
		}
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] < steps[i-1] {
			t.Errorf("progress steps out of order: %v", steps)
		}
	}
	if len(steps) == 0 {
		t.Error("no progress events observed on the stream")
	}
}

func TestStatsAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Options{}, func(ctx context.Context, j *Job) error { return nil })
	_, st := postJob(t, ts, detectBody)
	waitState(t, ts, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.JobsSubmitted != 1 || stats.JobsCompleted != 1 {
		t.Errorf("stats %+v, want 1 submitted / 1 completed", stats)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status"`)) {
		t.Errorf("healthz: HTTP %d %s", resp.StatusCode, body)
	}
	_ = s
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 3; i++ {
		if err := q.TryEnqueue(&Job{ID: fmt.Sprintf("job-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.TryEnqueue(&Job{ID: "job-overflow"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow error = %v", err)
	}
	if q.Depth() != 3 {
		t.Errorf("depth %d", q.Depth())
	}
	q.Close()
	if err := q.TryEnqueue(&Job{}); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("closed error = %v", err)
	}
	var order []string
	for j := range q.Jobs() {
		order = append(order, j.ID)
	}
	if fmt.Sprint(order) != "[job-0 job-1 job-2]" {
		t.Errorf("drain order %v", order)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	builds := 0
	build := func() (any, error) { builds++; return 42, nil }
	if _, hit, _ := c.do("k", build); hit {
		t.Error("first lookup reported a hit")
	}
	if v, hit, _ := c.do("k", build); !hit || v.(int) != 42 {
		t.Errorf("second lookup: hit=%v v=%v", hit, v)
	}
	if builds != 1 {
		t.Errorf("built %d times", builds)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits %d misses %d", c.Hits(), c.Misses())
	}
	// Failed builds are not cached.
	boom := errors.New("boom")
	if _, _, err := c.do("bad", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, hit, err := c.do("bad", func() (any, error) { return "ok", nil }); err != nil || hit {
		t.Errorf("retry after failure: hit=%v err=%v", hit, err)
	}
}

// TestWriteJSONUnencodableAnswers500: a response value that cannot be
// encoded (here a bare NaN) must answer 500 with an error body, never
// the intended 200 with an empty body.
func TestWriteJSONUnencodableAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body %q is not an error document (%v)", rec.Body.String(), err)
	}
}
