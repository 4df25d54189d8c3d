package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"superpose/internal/atpg"
	"superpose/internal/bench"
	"superpose/internal/core"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/trust"
)

// e2eBench serializes a generated circuit to .bench text — the inline
// design submitted over the wire AND parsed locally for the library-API
// comparison runs. Sized so one detect takes a few hundred ms: long
// enough that SSE subscribers attach before the flow ends and that a
// cancellation lands mid-run, short enough for the test budget.
func e2eBench(t *testing.T) string {
	t.Helper()
	n, err := trust.Generate(trust.Params{Name: "e2e", PIs: 8, POs: 8, FFs: 96, Comb: 2400, Levels: 7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bench.Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// e2eConfig reproduces the service's flow configuration for a library
// run: same knobs, same shared-seed resolution. A service job and this
// config must produce bit-identical reports.
func e2eConfig(t *testing.T, benchSrc string, workers int) (*core.Config, *power.Library, *core.Device) {
	t.Helper()
	host, err := bench.Parse(strings.NewReader(benchSrc), "user")
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	cfg := core.Config{
		NumChains:   4,
		MaxSeeds:    3,
		Varsigma:    0.15,
		ATPG:        atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120, Workers: workers},
		Acquisition: core.NaiveAcquisition(),
	}
	cfg, err = core.WithSharedSeeds(host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip := power.Manufacture(host, lib, power.ThreeSigmaIntra(0.15), 1)
	dev := core.NewDevice(chip, cfg.NumChains, scan.LOS)
	return &cfg, lib, dev
}

func submitSpec(t *testing.T, ts *httptest.Server, spec JobSpec) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, st := postJob(t, ts, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	return st
}

// collectSSE reads the job's event stream until the result event (or
// the stream ends) and returns everything observed.
func collectSSE(t *testing.T, ts *httptest.Server, id string, out *[]Event, mu *sync.Mutex) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Errorf("events: %v", err)
		return
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Errorf("bad SSE payload %q: %v", line, err)
			return
		}
		mu.Lock()
		*out = append(*out, ev)
		mu.Unlock()
		if ev.Type == "result" {
			return
		}
	}
}

// TestE2EDetect drives the whole stack over the wire: submit a detect
// job, stream its SSE progress, and verify the delivered report is
// bit-identical to a direct library-API run with shared seeds — then
// submit the identical spec again and verify the artifact cache served
// it (no second netlist build or ATPG run).
func TestE2EDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP")
	}
	benchSrc := e2eBench(t)
	s, ts := newTestServer(t, Options{Workers: 1}, nil) // nil hook: real pipeline

	spec := JobSpec{Kind: KindDetect, Bench: benchSrc, Clean: true, Workers: 2}

	// Submit twice back to back. With one worker, the second job queues
	// behind the first, so its SSE subscriber is guaranteed to attach
	// before the job starts — every progress event of the repeat run is
	// observed, with no startup race.
	st1 := submitSpec(t, ts, spec)
	st2 := submitSpec(t, ts, spec)
	var (
		events []Event
		evMu   sync.Mutex
		evDone = make(chan struct{})
	)
	go func() {
		defer close(evDone)
		collectSSE(t, ts, st2.ID, &events, &evMu)
	}()

	final1 := waitState(t, ts, st1.ID, StateDone)
	if final1.Report == nil {
		t.Fatal("done detect job carries no report")
	}
	if final1.CacheHit {
		t.Error("first submission reported a cache hit")
	}

	final2 := waitState(t, ts, st2.ID, StateDone)
	<-evDone

	// SSE progress: the repeat run's per-phase events, in stage order.
	evMu.Lock()
	var progress []Event
	for _, ev := range events {
		if ev.Type == "progress" && ev.Progress != nil {
			progress = append(progress, ev)
		}
	}
	evMu.Unlock()
	if len(progress) == 0 {
		t.Error("no SSE progress events observed")
	}
	valid := map[core.Stage]bool{core.StageSeeds: true, core.StageCalibrate: true,
		core.StageAdaptive: true, core.StagePairs: true, core.StageConfirm: true, core.StageDie: true}
	seen := map[core.Stage]bool{}
	for _, ev := range progress {
		if !valid[ev.Progress.Stage] {
			t.Errorf("unknown progress stage %q", ev.Progress.Stage)
		}
		seen[ev.Progress.Stage] = true
	}
	for _, must := range []core.Stage{core.StageCalibrate, core.StageAdaptive} {
		if !seen[must] {
			t.Errorf("stage %q never observed on the SSE stream", must)
		}
	}

	// Bit-identity against the library API.
	cfg, lib, dev := e2eConfig(t, benchSrc, 2)
	host := dev.PhysicalNetlist()
	want, err := core.Detect(host, lib, dev, *cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(final1.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("service report differs from library run:\nservice: %s\nlibrary: %s", gotJSON, wantJSON)
	}

	// The repeat submission was served from the cache: only the first job
	// built artifacts (one instance miss + one seed-set miss); the second
	// job's two lookups both hit, and it reports the hit.
	if !final2.CacheHit {
		t.Error("repeat submission did not report a cache hit")
	}
	if hits := s.Cache().Hits(); hits < 2 {
		t.Errorf("cache hits %d after repeat submission, want >= 2 (instance + seeds)", hits)
	}
	if misses := s.Cache().Misses(); misses != 2 {
		t.Errorf("misses %d after both jobs, want exactly 2 — the repeat submission rebuilt artifacts", misses)
	}
	got2, err := json.Marshal(final2.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, gotJSON) {
		t.Error("repeat submission's report differs from the first")
	}

	// The counter is also on the wire.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.CacheHits < 2 {
		t.Errorf("stats.CacheHits = %d, want >= 2", stats.CacheHits)
	}
}

// TestE2ELot submits a lot job and verifies per-die SSE progress plus
// bit-identity with the library lot API under shared seeds.
func TestE2ELot(t *testing.T) {
	if testing.Short() {
		t.Skip("full multi-die pipeline over HTTP")
	}
	benchSrc := e2eBench(t)
	_, ts := newTestServer(t, Options{}, nil)

	spec := JobSpec{Kind: KindLot, Bench: benchSrc, Clean: true, Dies: 2, Workers: 2}
	st := submitSpec(t, ts, spec)

	var (
		events []Event
		evMu   sync.Mutex
		evDone = make(chan struct{})
	)
	go func() {
		defer close(evDone)
		collectSSE(t, ts, st.ID, &events, &evMu)
	}()

	final := waitState(t, ts, st.ID, StateDone)
	<-evDone
	if final.LotReport == nil {
		t.Fatal("done lot job carries no lot report")
	}
	if len(final.LotReport.Dies) != 2 {
		t.Fatalf("lot report has %d dies, want 2", len(final.LotReport.Dies))
	}

	evMu.Lock()
	dieEvents := 0
	for _, ev := range events {
		if ev.Type == "progress" && ev.Progress != nil && ev.Progress.Stage == core.StageDie {
			dieEvents++
			if ev.Progress.Total != 2 {
				t.Errorf("die progress total %d, want 2", ev.Progress.Total)
			}
		}
	}
	evMu.Unlock()
	if dieEvents == 0 {
		t.Error("no per-die SSE progress observed")
	}

	// Library comparison.
	cfg, lib, dev := e2eConfig(t, benchSrc, 2)
	host := dev.PhysicalNetlist()
	want, err := core.CertifyLot(host, lib, host, *cfg, core.LotOptions{
		Dies:        2,
		Variation:   power.ThreeSigmaIntra(0.15),
		Seed:        1,
		Acquisition: cfg.Acquisition,
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(final.LotReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("service lot report differs from library run:\nservice: %s\nlibrary: %s", gotJSON, wantJSON)
	}
}

// TestE2ECancelInFlight cancels a running lot mid-certification and
// requires the prompt context.Canceled outcome — not a full run to
// completion.
func TestE2ECancelInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over HTTP")
	}
	benchSrc := e2eBench(t)
	_, ts := newTestServer(t, Options{}, nil)

	// A fat lot: long enough that cancellation lands mid-flow.
	spec := JobSpec{Kind: KindLot, Bench: benchSrc, Clean: true, Dies: 16, Workers: 1}
	st := submitSpec(t, ts, spec)

	// Wait for the job to actually start.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		_, cur := getStatus(t, ts, st.ID)
		if cur.State == StateRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished (%s) before it could be cancelled — fixture too small", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitState(t, ts, st.ID, StateCancelled)
	elapsed := time.Since(start)
	if !strings.Contains(final.Error, context.Canceled.Error()) {
		t.Errorf("cancelled job error = %q, want context.Canceled", final.Error)
	}
	// "Promptly": well under the time the remaining dies would need.
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if final.LotReport != nil || final.Report != nil {
		t.Error("cancelled job must not deliver a report")
	}
}
