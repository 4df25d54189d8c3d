package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"superpose/internal/atpg"
	"superpose/internal/bench"
	"superpose/internal/scan"
	"superpose/internal/service"
)

// jobTrace is one job's life as its event stream told it.
type jobTrace struct {
	accepted, running, result time.Time
	clock                     *stageClock
}

// sseTracer subscribes to /v1/jobs/{id}/events of every followed job on
// its own connections (the load's connection bound does not apply to the
// trace) and timestamps state changes and stage progress.
type sseTracer struct {
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	jobs   []*jobTrace
}

func newSSETracer() *sseTracer {
	ctx, cancel := context.WithCancel(context.Background())
	return &sseTracer{client: &http.Client{Transport: &http.Transport{}}, ctx: ctx, cancel: cancel}
}

// follow starts streaming one job's events.
func (t *sseTracer) follow(base, id string, accepted time.Time) {
	jt := &jobTrace{accepted: accepted, clock: newStageClock(false)}
	t.mu.Lock()
	t.jobs = append(t.jobs, jt)
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.stream(base+"/v1/jobs/"+id+"/events", jt)
	}()
}

func (t *sseTracer) stream(url string, jt *jobTrace) {
	req, err := http.NewRequestWithContext(t.ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev service.Event
		if json.Unmarshal([]byte(data), &ev) != nil {
			continue
		}
		if ev.State == service.StateRunning && jt.running.IsZero() {
			jt.running = at
		}
		if ev.Progress != nil {
			jt.clock.observe(*ev.Progress, at)
		}
		if ev.Type == "result" || ev.State.Terminal() {
			if jt.running.IsZero() {
				jt.running = at
			}
			jt.result = at
			jt.clock.end(at)
			return
		}
	}
}

// settle waits for the followed streams to end (each ends with its job),
// cutting off any still open after grace.
func (t *sseTracer) settle(grace time.Duration) []*jobTrace {
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		t.cancel()
		<-done
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*jobTrace(nil), t.jobs...)
}

func (t *sseTracer) stop() {
	t.cancel()
	t.wg.Wait()
	t.client.CloseIdleConnections()
}

// workerTap is the benchmark's timing middleware around a cluster
// worker's handler. It sees every dispatch (POST /v1/jobs) and status
// poll the coordinator sends, watches each dispatched job's public Done,
// and has the tracer follow the job on the worker.
type workerTap struct {
	tracer  *sseTracer
	enabled atomic.Bool
	wg      sync.WaitGroup
	quit    chan struct{}

	mu       sync.Mutex
	home     map[string]int // content key → first worker it was routed to
	routed   int            // dispatches of already-routed keys
	atHome   int            // ...that went to the key's first worker
	arrivals map[string]time.Time
	polls    map[string][]time.Time // worker/job → poll times
	finished map[string]time.Time   // worker/job → Done
}

// newWorkerTap returns a disabled tap: it only learns routing (each
// design's first worker) until enabled for the traced window.
func newWorkerTap(tr *sseTracer) *workerTap {
	return &workerTap{
		tracer: tr, quit: make(chan struct{}), home: map[string]int{},
		arrivals: map[string]time.Time{}, polls: map[string][]time.Time{}, finished: map[string]time.Time{},
	}
}

func (t *workerTap) stop() {
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	t.wg.Wait()
}

func (t *workerTap) wrap(worker int, svc *service.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			t.dispatch(worker, svc, w, r)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
			!strings.HasSuffix(r.URL.Path, "/events"):
			svc.ServeHTTP(w, r)
			at := time.Now()
			if t.enabled.Load() {
				key := fmt.Sprintf("%d/%s", worker, strings.TrimPrefix(r.URL.Path, "/v1/jobs/"))
				t.mu.Lock()
				t.polls[key] = append(t.polls[key], at)
				t.mu.Unlock()
			}
		default:
			svc.ServeHTTP(w, r)
		}
	})
}

// captured keeps a copy of a response body.
type captured struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captured) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

func (t *workerTap) dispatch(worker int, svc *service.Server, w http.ResponseWriter, r *http.Request) {
	arrive := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &captured{ResponseWriter: w}
	svc.ServeHTTP(cw, r)
	var spec service.JobSpec
	var st service.Status
	if json.Unmarshal(body, &spec) != nil || json.Unmarshal(cw.buf.Bytes(), &st) != nil || st.ID == "" {
		return
	}
	key := spec.ContentKey()
	coordJob, _, _ := strings.Cut(spec.SubmitToken, "#")
	t.mu.Lock()
	home, seen := t.home[key]
	if !seen {
		t.home[key] = worker
	}
	enabled := t.enabled.Load()
	if enabled && seen {
		t.routed++
		if home == worker {
			t.atHome++
		}
	}
	if enabled {
		if _, dup := t.arrivals[coordJob]; !dup {
			t.arrivals[coordJob] = arrive
		}
	}
	t.mu.Unlock()
	if !enabled {
		return
	}
	t.tracer.follow("http://"+r.Host, st.ID, time.Now())
	if j, ok := svc.Job(st.ID); ok {
		wkey := fmt.Sprintf("%d/%s", worker, st.ID)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			select {
			case <-j.Done():
				at := time.Now()
				t.mu.Lock()
				t.finished[wkey] = at
				t.mu.Unlock()
			case <-t.quit:
			}
		}()
	}
}

// pollStats returns the coordinator's poll lag per worker job (its first
// poll at or after the job's Done), and polls per dispatched job.
func (t *workerTap) pollStats() (lags []float64, perJob float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for key, ps := range t.polls {
		total += len(ps)
		d, ok := t.finished[key]
		if !ok {
			continue
		}
		for _, p := range ps {
			if !p.Before(d) {
				lags = append(lags, ms(p.Sub(d)))
				break
			}
		}
	}
	if n := len(t.finished); n > 0 {
		perJob = float64(total) / float64(n)
	}
	return lags, perJob
}

// traceServe is the traced serve/fleet run: a nominal-rate window with
// tracing off, then another with the event-stream tracer and (clustered)
// the worker middleware on. Their latency difference is the tracing
// overhead; the traced window gives the per-layer metrics.
func traceServe(ctx context.Context, res *result, d *loader, tr *sseTracer,
	seeds *splitmix64, rate float64, blocks int, name string) error {
	plain := d.run(ctx, planWindow(seeds, rate, blocks, 0), time.Now().Add(50*time.Millisecond))
	plainW := summarize(plain)

	before, err := clusterStats(ctx, d)
	if err != nil {
		return err
	}
	d.trace = tr
	if d.st.tap != nil {
		d.st.tap.enabled.Store(true)
	}
	plan := planWindow(seeds, rate, blocks, len(plain))
	traced := d.run(ctx, plan, time.Now().Add(50*time.Millisecond))
	if d.st.tap != nil {
		d.st.tap.enabled.Store(false)
	}
	jobs := tr.settle(5 * time.Second)
	after, err := clusterStats(ctx, d)
	if err != nil {
		return err
	}
	tracedW := summarize(traced)
	if err := genValid(name, append(plainW.lags, tracedW.lags...)); err != nil {
		return err
	}
	all := append(append([]*sent(nil), plain...), traced...)
	checkSent(ctx, res, all)

	m := res.Metrics
	tally := newCoreTally()
	var queue, run []float64
	for _, jt := range jobs {
		if jt.result.IsZero() {
			continue
		}
		tally.addClock(jt.clock)
		queue = append(queue, ms(jt.running.Sub(jt.accepted)))
		run = append(run, ms(jt.result.Sub(jt.running)))
	}
	for _, s := range traced {
		if s.ok {
			tally.addReport(s.report)
		}
	}
	tally.into(m)
	m["service.submit_ms"] = median(tracedW.submits)
	m["service.fetch_ms"] = median(tracedW.fetches)
	m["service.queue_wait_ms"] = median(queue)
	m["service.run_ms"] = median(run)
	m["service.decode_failures"] = float64(tracedW.decode)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	if hits+misses > 0 {
		m["service.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["service.retries"] = float64(after.retries - before.retries)
	m["gen.lag_p90_ms"] = quantile(tracedW.lags, 0.9)
	p50plain := quantile(latencies(plainW.outs, jobDeadline), 0.5)
	p50traced := quantile(latencies(tracedW.outs, jobDeadline), 0.5)
	m["trace.overhead_pct"] = 100 * (p50traced - p50plain) / p50plain
	fmt.Fprintf(os.Stderr, "perfbench: %s: tracing overhead %+.1f ms at p50 (traced %.1f ms, untraced %.1f ms; %d and %d samples)\n",
		name, p50traced-p50plain, p50traced, p50plain, len(traced), len(plain))

	if tap := d.st.tap; tap != nil {
		tap.mu.Lock()
		var dispatch []float64
		for _, s := range traced {
			if at, ok := tap.arrivals[s.id]; ok {
				dispatch = append(dispatch, ms(at.Sub(s.post)))
			}
		}
		if tap.routed > 0 {
			m["cluster.affinity_ratio"] = float64(tap.atHome) / float64(tap.routed)
		}
		tap.mu.Unlock()
		lags, perJob := tap.pollStats()
		m["cluster.dispatch_ms"] = median(dispatch)
		m["cluster.poll_lag_ms"] = median(lags)
		m["cluster.polls_per_job"] = perJob
		m["cluster.handoffs"] = float64(after.handoffs - before.handoffs)
		m["cluster.steals"] = float64(after.steals - before.steals)
	}
	return fresh(res, traced)
}

// counters are the node statistics a traced window reports as deltas.
type counters struct {
	hits, misses, retries, handoffs, steals uint64
}

func clusterStats(ctx context.Context, d *loader) (counters, error) {
	var c counters
	for _, n := range d.st.runners {
		var st service.Stats
		if err := getJSON(ctx, d.client, n.url+"/v1/stats", &st); err != nil {
			return c, err
		}
		c.hits += st.CacheHits
		c.misses += st.CacheMisses
		c.retries += st.JobsRetried
	}
	if d.st.coord != nil {
		var st service.Stats
		if err := getJSON(ctx, d.client, d.st.entry.url+"/v1/stats", &st); err != nil {
			return c, err
		}
		c.handoffs, c.steals = st.Cluster["handoffs"], st.Cluster["steals"]
	}
	return c, nil
}

// fresh times, from the benchmark, the layers a fresh design's cache miss
// pays inside the service: streaming parse, SoA compile and seed ATPG on
// the traced window's inline designs.
func fresh(res *result, traced []*sent) error {
	var parse, soa, gen time.Duration
	var srcBytes, csr int64
	n, patterns := 0, 0
	for _, s := range traced {
		if s.req.Class != "fresh" {
			continue
		}
		src := s.req.Spec.Bench
		t0 := time.Now()
		nl, err := bench.ParseStreamSized(strings.NewReader(src), "user", 0)
		if err != nil {
			return fmt.Errorf("parse fresh design: %w", err)
		}
		t1 := time.Now()
		a := nl.SoA()
		t2 := time.Now()
		g, err := atpg.Generate(scan.Configure(nl, 4), serviceATPG())
		if err != nil {
			return fmt.Errorf("ATPG on fresh design: %w", err)
		}
		gen += time.Since(t2)
		parse += t1.Sub(t0)
		soa += t2.Sub(t1)
		srcBytes += int64(len(src))
		csr += csrBytes(a)
		patterns += len(g.Patterns)
		n++
	}
	if n == 0 {
		return nil
	}
	m := res.Metrics
	m["bench.parse_s"] = parse.Seconds() / float64(n)
	m["bench.parse_mb_per_s"] = float64(srcBytes) / (1 << 20) / parse.Seconds()
	m["netlist.soa_s"] = soa.Seconds() / float64(n)
	m["netlist.csr_mb"] = float64(csr) / (1 << 20) / float64(n)
	m["atpg.generate_s"] = gen.Seconds() / float64(n)
	m["atpg.patterns"] = float64(patterns) / float64(n)
	return nil
}
