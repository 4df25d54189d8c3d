package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"superpose/internal/bench"
	"superpose/internal/cluster"
	"superpose/internal/core"
	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/service"
	"superpose/internal/tester"
	"superpose/internal/trojan"
	"superpose/internal/trust"
)

const (
	serveScale    = 0.05
	serveVarsigma = 0.15
	// latencyLimit is the p90 latency target behind goodput.
	latencyLimit = 500 * time.Millisecond
	// jobDeadline bounds every request: past it the job is cancelled with
	// DELETE and counted as failed (and at this latency). It is four times
	// latencyLimit; no job that can finish takes that long at these rates.
	jobDeadline = 2 * time.Second
	// queueSize is each node's pending-job bound (the service default is
	// 16); a submission beyond it is refused and counts as failed.
	queueSize = 64
	// sampleEvery picks the requests whose reports are compared byte for
	// byte with a direct library run.
	sampleEvery = 20
	// maxGenLag is how late the generator may send at its p90 before the
	// run's latencies no longer describe the offered load.
	maxGenLag = 100 * time.Millisecond
	tenants   = 4
)

// request is one planned job of the open-loop mix.
type request struct {
	At       time.Duration // due time from the window start
	Spec     service.JobSpec
	Class    string // a mix class
	Infected bool   // ground truth of the die
	Sample   bool   // compared with a library run
}

// The open-loop mix, per block of 20 consecutive requests: repeat designs
// (cache hits; two of them clean dies), fresh inline designs with an
// auto-placed Trojan (cache misses: parse, AutoInsert and ATPG), and
// repeat designs measured on the faulty "combined" tester. Each block is
// shuffled on its own, and every window offers whole blocks, so each
// window's mix is exact. Fresh jobs are the slowest class; at one in five
// the nominal p90 is the median of the miss tail, not its edge where a
// single job moves it.
var mix = []struct {
	class string
	count int
}{
	{"hit", 10},
	{"clean", 2},
	{"fresh", freshStructures},
	{"combined", 4},
}

// freshStructures is the number of fresh designs in one block of the mix,
// and the number of fixed structures they are built on.
const freshStructures = 4

// blockSize is the number of requests in one block of the mix.
const blockSize = 20

// blockWindow is how long a window of blocks blocks lasts at rate.
func blockWindow(rate float64, blocks int) time.Duration {
	return time.Duration(float64(blocks*blockSize) / rate * float64(time.Second))
}

// planWindow draws one window of blocks blocks at rate: the schedule's
// arrivals, classes from seeded shuffles of the mix block, and a distinct
// die for every job. The k-th request of a class takes case k mod 5 (hit,
// combined) or fresh structure k mod freshStructures: the cases differ in
// cost, and a random pick gave each seed's window a different share of the
// heavy ones.
func planWindow(s *splitmix64, rate float64, blocks int, first int) []request {
	arrivals := schedule(rate, blockWindow(rate, blocks), s.float)
	var block, classes []string
	for _, m := range mix {
		for n := 0; n < m.count; n++ {
			block = append(block, m.class)
		}
	}
	for len(classes) < len(arrivals) {
		for i := len(block) - 1; i > 0; i-- {
			j := int(s.next() % uint64(i+1))
			block[i], block[j] = block[j], block[i]
		}
		classes = append(classes, block...)
	}
	cases := trust.Names()
	out := make([]request, len(arrivals))
	nth := map[string]int{} // requests of each class so far
	for k, a := range arrivals {
		i := first + a.Index
		spec := service.JobSpec{
			Kind:     service.KindDetect,
			Scale:    serveScale,
			Varsigma: serveVarsigma,
			ChipSeed: s.next()>>1 | 1, // distinct, nonzero
			Tenant:   fmt.Sprintf("tenant-%d", i%tenants),
		}
		r := request{At: a.At, Class: classes[k], Infected: true, Sample: i%sampleEvery == 0}
		n := nth[r.Class]
		nth[r.Class]++
		switch r.Class {
		case "hit":
			spec.Case = cases[n%len(cases)]
		case "clean":
			spec.Case, spec.Clean, r.Infected = "s38417-T200", true, false
		case "fresh":
			spec.Bench = freshDesign(n%freshStructures, s.next())
			spec.Infect = 4
		case "combined":
			spec.Case = cases[n%len(cases)]
			spec.Tester = "combined"
			spec.TesterSeed = s.next()>>1 | 1
		}
		r.Spec = spec
		out[k] = r
	}
	return out
}

// freshDesign renders a never-seen synthetic full-scan design (the size of
// an s38584 host at the service's default scale) as .bench text: fresh
// structure number structure, with every net renamed by tag. The service
// has never seen the text, so the job pays the whole miss, but its cost is
// that of one of freshStructures fixed structures: ATPG cost differs by tens
// of percent between random structures, and every window offers each
// structure equally often, so no seed's window is heavier than another's.
func freshDesign(structure int, tag uint64) string {
	n, err := trust.Generate(trust.Params{
		Name: fmt.Sprintf("fresh%x", tag), PIs: 38, POs: 304, FFs: 1426, Comb: 19253,
		Levels: 11, Seed: uint64(structure) + 1, Scale: serveScale,
	})
	if err != nil {
		panic(err) // fixed parameters: a failure is a bug in the generator
	}
	prefix := fmt.Sprintf("f%x_", tag)
	for i := range n.Names {
		n.Names[i] = prefix + n.Names[i]
	}
	var b strings.Builder
	if err := bench.Write(&b, n); err != nil {
		panic(err)
	}
	return b.String()
}

// node is one service node the load reaches: its server and its URL.
type node struct {
	svc *service.Server
	url string
}

// stack is a running standalone server or cluster. entry takes the
// client's requests; runners are the nodes that execute jobs.
type stack struct {
	entry   node
	coord   *cluster.Coordinator
	runners []node
	tap     *workerTap // fleet only, traced runs only
	close   func()
}

func newStandalone(dir string) (*stack, error) {
	svc, err := service.New(service.Options{DataDir: dir, Workers: runtime.NumCPU(), QueueSize: queueSize})
	if err != nil {
		return nil, err
	}
	svc.Start()
	ts := httptest.NewServer(svc)
	n := node{svc, ts.URL}
	return &stack{entry: n, runners: []node{n}, close: func() {
		ts.Close()
		drainNow(svc.Drain)
	}}, nil
}

// newFleet boots a coordinator and two workers on httptest listeners, all
// journaled, joined through real cluster.Agent registration. A non-nil
// tap wraps the workers' handlers.
func newFleet(ctx context.Context, dir string, tap *workerTap) (*stack, error) {
	coord, err := cluster.New(cluster.Options{
		Service: service.Options{DataDir: dir + "/coord", QueueSize: queueSize},
	})
	if err != nil {
		return nil, err
	}
	coord.Start()
	cts := httptest.NewServer(coord)
	st := &stack{entry: node{coord.Service(), cts.URL}, coord: coord, tap: tap}
	actx, stopAgents := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	var closers []func()
	st.close = func() {
		cts.Close()
		drainNow(coord.Drain)
		stopAgents()
		agents.Wait()
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		if tap != nil {
			tap.stop()
		}
	}
	for i := 0; i < 2; i++ {
		svc, err := service.New(service.Options{
			DataDir: fmt.Sprintf("%s/worker%d", dir, i), Workers: runtime.NumCPU(), QueueSize: queueSize,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		svc.Start()
		var h http.Handler = svc
		if tap != nil {
			h = tap.wrap(i, svc)
		}
		ts := httptest.NewServer(h)
		closers = append(closers, func() { ts.Close(); drainNow(svc.Drain) })
		st.runners = append(st.runners, node{svc, ts.URL})
		agent := cluster.NewAgent(cluster.AgentOptions{Coordinator: cts.URL, Addr: ts.URL})
		agents.Add(1)
		go func() {
			defer agents.Done()
			agent.Run(actx)
		}()
	}
	// Wait until both workers hold a lease.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		var ws struct{ Workers []cluster.WorkerView }
		if err := getJSON(wctx, http.DefaultClient, cts.URL+"/cluster/v1/workers", &ws); err == nil && len(ws.Workers) == 2 {
			return st, nil
		}
		select {
		case <-wctx.Done():
			st.close()
			return nil, fmt.Errorf("workers did not register: %w", wctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// drainNow stops a server without waiting for its in-flight jobs.
func drainNow(drain func(context.Context) error) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = drain(ctx) // a cancelled budget reports the aborted jobs; expected
}

// warm runs one job per design the repeat traffic uses, all at once, so
// the artifact cache holds their netlists and ATPG seeds before measuring.
func warm(ctx context.Context, c *http.Client, st *stack) error {
	specs := []service.JobSpec{{Case: "s38417-T200", Clean: true}}
	for _, name := range trust.Names() {
		specs = append(specs, service.JobSpec{Case: name})
	}
	var jobs []*service.Job
	for _, spec := range specs {
		spec.Kind, spec.Scale, spec.Varsigma = service.KindDetect, serveScale, serveVarsigma
		id, err := submit(ctx, c, st.entry.url, spec)
		if err != nil {
			return fmt.Errorf("warm %s: %w", spec.Case, err)
		}
		j, ok := st.entry.svc.Job(id)
		if !ok {
			return fmt.Errorf("warm %s: job %s not registered", spec.Case, id)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
		if s := j.State(); s != service.StateDone {
			return fmt.Errorf("warm %s: job ended %s", specs[i].Case, s)
		}
	}
	return nil
}

// submit posts a job spec and returns the accepted job's ID.
func submit(ctx context.Context, c *http.Client, base string, spec service.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sent is the record of one request as it went: timings, and the report
// fetched for it.
type sent struct {
	req                 request
	due, post, accepted time.Time
	done                time.Time // verified fetch finished (or the job failed)
	fetch               time.Duration
	id                  string
	ok, decodeFailure   bool
	report              *core.Report
}

// loader sends a precomputed plan open-loop through at most nproc
// keep-alive connections, detects completion through the public Job.Done
// and fetches each report over HTTP.
type loader struct {
	st     *stack
	client *http.Client
	trace  *sseTracer // nil in metric runs
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// run offers plan starting at start and returns once every request has a
// verdict, a failure or has been cancelled at its deadline.
func (d *loader) run(ctx context.Context, plan []request, start time.Time) []*sent {
	out := make([]*sent, len(plan))
	work := make(chan int)
	var senders, waiters sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range work {
				s := out[i]
				s.post = time.Now()
				id, err := submit(ctx, d.client, d.st.entry.url, s.req.Spec)
				s.accepted = time.Now()
				if err != nil {
					s.done = s.accepted
					fmt.Fprintf(os.Stderr, "perfbench: submit refused: %v\n", err)
					continue
				}
				s.id = id
				if d.trace != nil && d.st.tap == nil {
					d.trace.follow(d.st.entry.url, id, s.accepted)
				}
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					d.await(ctx, s)
				}()
			}
		}()
	}
	for i, r := range plan {
		out[i] = &sent{req: r, due: start.Add(r.At)}
		if wait := time.Until(out[i].due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		work <- i
	}
	close(work)
	senders.Wait()
	waiters.Wait()
	return out
}

// await waits for one accepted job's terminal state, then fetches and
// decodes its report. Past the deadline the job is cancelled.
func (d *loader) await(ctx context.Context, s *sent) {
	j, ok := d.st.entry.svc.Job(s.id)
	if !ok {
		s.done = time.Now()
		return
	}
	timer := time.NewTimer(time.Until(s.due.Add(jobDeadline)))
	defer timer.Stop()
	select {
	case <-j.Done():
	case <-timer.C:
		d.cancel(s.id)
		s.done = time.Now()
		fmt.Fprintf(os.Stderr, "perfbench: job %s (%s %s chip %d) passed its deadline; cancelled\n",
			s.id, s.req.Class, s.req.Spec.Case, s.req.Spec.ChipSeed)
		return
	case <-ctx.Done():
		s.done = time.Now()
		return
	}
	t0 := time.Now()
	body, err := d.get(ctx, d.st.entry.url+"/v1/jobs/"+s.id)
	s.done = time.Now()
	s.fetch = s.done.Sub(t0)
	if err != nil {
		return
	}
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		s.decodeFailure = true
		fmt.Fprintf(os.Stderr, "perfbench: job %s (%s %s chip %d tester %s): report does not decode (%d bytes): %v\n",
			s.id, s.req.Class, s.req.Spec.Case, s.req.Spec.ChipSeed, s.req.Spec.Tester, len(body), err)
		return
	}
	if st.State != service.StateDone || st.Report == nil {
		fmt.Fprintf(os.Stderr, "perfbench: job %s ended %s: %s\n", s.id, st.State, st.Error)
		return
	}
	s.ok, s.report = true, st.Report
}

func (d *loader) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, err
}

func (d *loader) cancel(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, d.st.entry.url+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := d.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// window summarizes one offered window.
type window struct {
	outs     []outcome
	lags     []float64 // ms the generator sent late
	submits  []float64 // ms
	fetches  []float64 // ms
	verified int
	decode   int
}

func summarize(sents []*sent) window {
	var w window
	for _, s := range sents {
		w.outs = append(w.outs, outcome{Latency: s.done.Sub(s.due), OK: s.ok})
		w.lags = append(w.lags, ms(s.post.Sub(s.due)))
		if s.id != "" {
			w.submits = append(w.submits, ms(s.accepted.Sub(s.post)))
		}
		if s.fetch > 0 {
			w.fetches = append(w.fetches, ms(s.fetch))
		}
		if s.decodeFailure {
			w.decode++
		}
		if s.ok {
			w.verified++
		}
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveRates are the nominal and peak offered rates (jobs/s) of the
// standalone and the clustered workload, sized for a 2-CPU machine: the
// peak stays below the knee, where peak p90 is still well under
// latencyLimit. The cluster's rates are lower because its coordinator, two
// workers and status polls share the same CPUs, and because its latency
// moves in steps of the 100 ms status poll: at 5/s its peak p90 flips
// between two steps from run to run.
func serveRates(clustered bool) (nominal, peak float64) {
	if clustered {
		return 2.5, 4
	}
	return 5, 7
}

// splitBlocks shares a run of length total between a nominal and a peak
// window of whole blocks: it adds a nominal block, then a peak block, for
// as long as the next one fits, and gives each window at least one.
func splitBlocks(total time.Duration, nominal, peak float64) (nomBlocks, peakBlocks int) {
	nomBlocks, peakBlocks = 1, 1
	for {
		used := blockWindow(nominal, nomBlocks) + blockWindow(peak, peakBlocks)
		if peakBlocks == nomBlocks {
			if used+blockWindow(nominal, 1) > total {
				return
			}
			nomBlocks++
		} else {
			if used+blockWindow(peak, 1) > total {
				return
			}
			peakBlocks++
		}
	}
}

func runServe(ctx context.Context, o opts, clustered bool) (*result, error) {
	name := "serve"
	if clustered {
		name = "fleet"
	}
	base, err := os.MkdirTemp("", "perfbench-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	client := newClient()
	defer client.CloseIdleConnections()

	var tap *workerTap
	var tracer *sseTracer
	setups := 0
	st, done, setupS, err := setUp(func() (*stack, func(), error) {
		setups++
		dir := fmt.Sprintf("%s/%d", base, setups)
		var tr *sseTracer
		if o.Trace {
			tr = newSSETracer()
			tracer = tr
			if clustered {
				tap = newWorkerTap(tr)
			}
		}
		var st *stack
		var err error
		if clustered {
			st, err = newFleet(ctx, dir, tap)
		} else {
			st, err = newStandalone(dir)
		}
		if err != nil {
			return nil, nil, err
		}
		if err := warm(ctx, client, st); err != nil {
			st.close()
			return nil, nil, err
		}
		return st, func() {
			if tr != nil {
				tr.stop() // first: open event streams would hold the listeners
			}
			st.close()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer done()

	res := newResult()
	res.Metrics["setup_s"] = setupS
	seeds := splitmix64(o.Seed)
	nominal, peak := serveRates(clustered)
	d := &loader{st: st, client: client}
	if o.Trace {
		blocks := max(1, int(o.Seconds.Seconds()*nominal/2/blockSize))
		return res, traceServe(ctx, res, d, tracer, &seeds, nominal, blocks, name)
	}

	nomBlocks, peakBlocks := splitBlocks(o.Seconds, nominal, peak)
	nomWin, peakWin := blockWindow(nominal, nomBlocks), blockWindow(peak, peakBlocks)
	nomPlan := planWindow(&seeds, nominal, nomBlocks, 0)
	peakPlan := planWindow(&seeds, peak, peakBlocks, len(nomPlan))
	t0 := time.Now().Add(50 * time.Millisecond)
	nomSent := d.run(ctx, nomPlan, t0)
	peakSent := d.run(ctx, peakPlan, time.Now().Add(50*time.Millisecond))
	nom, pk := summarize(nomSent), summarize(peakSent)
	if err := genValid(name, append(nom.lags, pk.lags...)); err != nil {
		return nil, err
	}

	all := append(append([]*sent(nil), nomSent...), peakSent...)
	checkSent(ctx, res, all)

	m := res.Metrics
	nomMS := latencies(nom.outs, jobDeadline)
	m["p50_ms"] = quantile(nomMS, 0.5)
	m["p90_ms"] = quantile(nomMS, 0.9)
	m["peak_p90_ms"] = quantile(latencies(pk.outs, jobDeadline), 0.9)
	m["goodput_jobs_per_s"] = goodput(pk.outs, latencyLimit, peakWin)
	// An open-loop request is the unit of work: wall_s is its median
	// latency over both windows, dies_per_s the verified verdicts per
	// second of offered window.
	m["wall_s"] = quantile(latencies(append(nom.outs, pk.outs...), jobDeadline), 0.5) / 1000
	m["dies_per_s"] = float64(nom.verified+pk.verified) / (nomWin + peakWin).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d nominal samples at %g/s, %d peak samples at %g/s\n",
		name, len(nomPlan), nominal, len(peakPlan), peak)
	byClass(name, "nominal", nomSent)
	byClass(name, "peak", peakSent)
	return res, nil
}

// genValid rejects a run whose generator fell materially behind its
// schedule: its latencies would describe a lighter load than offered.
func genValid(name string, lags []float64) error {
	if p90 := quantile(lags, 0.9); p90 > ms(maxGenLag) {
		return fmt.Errorf("%s: invalid run: the generator sent %.1f ms late at p90 (limit %v)", name, p90, maxGenLag)
	}
	return nil
}

// checkSent counts every request as attempted, each failure as failed, and
// compares the sampled reports byte for byte with a direct library run.
func checkSent(ctx context.Context, res *result, all []*sent) {
	lib := newLibrary()
	for _, s := range all {
		if !s.ok {
			res.fail("%s job %q (%s chip %d tester %s) gave no verified report",
				s.req.Class, s.id, s.req.Spec.Case, s.req.Spec.ChipSeed, s.req.Spec.Tester)
			continue
		}
		res.verdict(s.req.Infected, s.report.Detected)
		if !s.req.Sample || ctx.Err() != nil {
			res.pass()
			continue
		}
		want, err := lib.report(s.req.Spec)
		if err != nil {
			res.fail("library run for %s job %s: %v", s.req.Class, s.id, err)
			continue
		}
		got, err1 := json.Marshal(s.report)
		ref, err2 := json.Marshal(want)
		if err1 != nil || err2 != nil {
			res.fail("%s job %s: report does not encode (%v, %v)", s.req.Class, s.id, err1, err2)
			continue
		}
		res.check(bytes.Equal(got, ref), "%s job %s: service report differs from the library run", s.req.Class, s.id)
	}
}

// library reproduces service jobs as direct library runs with shared
// seeds, memoizing designs and seed sets like the service's cache.
type library struct {
	designs map[string][2]*netlist.Netlist
	seeds   map[string]core.Config
}

func newLibrary() *library {
	return &library{designs: map[string][2]*netlist.Netlist{}, seeds: map[string]core.Config{}}
}

func (l *library) report(spec service.JobSpec) (*core.Report, error) {
	key := spec.ContentKey()
	pair, ok := l.designs[key]
	if !ok {
		var err error
		if pair, err = materialize(spec); err != nil {
			return nil, err
		}
		l.designs[key] = pair
	}
	golden, physical := pair[0], pair[1]
	faults, err := tester.Preset(spec.Tester, spec.TesterSeed)
	if err != nil {
		return nil, err
	}
	cfg, ok := l.seeds[key]
	if !ok {
		cfg, err = core.WithSharedSeeds(golden, core.Config{
			NumChains: 4,
			MaxSeeds:  3,
			Varsigma:  spec.Varsigma,
			ATPG:      serviceATPG(),
			Channel:   core.ChannelPower,
		})
		if err != nil {
			return nil, err
		}
		l.seeds[key] = cfg
	}
	cfg.Acquisition = core.NaiveAcquisition()
	if faults.Enabled() {
		cfg.Acquisition = core.RobustAcquisition()
	}
	lib := power.SAED90Like()
	chip := power.Manufacture(physical, lib, power.ThreeSigmaIntra(spec.Varsigma), spec.ChipSeed)
	dev := core.NewDevice(chip, cfg.NumChains, cfg.Mode)
	defer dev.Close()
	if faults.Enabled() {
		dev.SetFaultModel(tester.New(faults))
	}
	return core.Detect(golden, lib, dev, cfg)
}

// materialize builds a job's golden and physical netlists the way the
// service documents them: a built-in case (clean or infected), or an
// inline .bench design with an auto-placed Trojan.
func materialize(spec service.JobSpec) ([2]*netlist.Netlist, error) {
	if spec.Case != "" {
		parts := strings.SplitN(spec.Case, "-", 2)
		ti, err := trust.Build(trust.Case{Benchmark: parts[0], Trojan: parts[1]}, spec.Scale)
		if err != nil {
			return [2]*netlist.Netlist{}, err
		}
		if spec.Clean {
			return [2]*netlist.Netlist{ti.Host, ti.Host}, nil
		}
		return [2]*netlist.Netlist{ti.Host, ti.Infected}, nil
	}
	host, err := bench.Parse(strings.NewReader(spec.Bench), "user")
	if err != nil {
		return [2]*netlist.Netlist{}, err
	}
	ti, err := trojan.AutoInsert(host, spec.Infect)
	if err != nil {
		return [2]*netlist.Netlist{}, err
	}
	return [2]*netlist.Netlist{host, ti.Infected}, nil
}

// byClass prints each mix class's latency quartiles, for reading a run.
func byClass(name, win string, sents []*sent) {
	lat := map[string][]outcome{}
	for _, s := range sents {
		lat[s.req.Class] = append(lat[s.req.Class], outcome{Latency: s.done.Sub(s.due), OK: s.ok})
	}
	for _, m := range mix {
		xs := latencies(lat[m.class], jobDeadline)
		fmt.Fprintf(os.Stderr, "perfbench: %s %s %-8s n=%3d p25 %6.1f p50 %6.1f p75 %6.1f p90 %6.1f ms\n", name, win, m.class,
			len(xs), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9))
	}
}
