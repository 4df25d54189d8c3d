package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"superpose/internal/core"
	"superpose/internal/failpoint"
	"superpose/internal/journal"
	"superpose/internal/service"
)

// registerWorkerFresh registers a worker over a dedicated, non-pooled
// connection and retries transient dial/conn errors. The shared
// http.DefaultClient keep-alive pool is useless right after a primary
// restart on a reused address: it can hand out a socket the dead
// incarnation already closed, and POSTs are not replayed automatically.
func registerWorkerFresh(t *testing.T, coordURL string, addr string) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{Addr: addr})
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Post(coordURL+"/cluster/v1/register", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			lastErr = errors.New("HTTP " + strconv.Itoa(resp.StatusCode))
		} else {
			lastErr = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("register after restart: %v", lastErr)
}

// TestHALeaseLockMutualExclusion hammers the lease's flock-based
// critical section from many goroutines across two independent handles:
// a read-modify-write counter must never lose an increment. (flock is
// per open file description, so two handles — or two processes —
// exclude each other; the old Stat-and-break scheme could race two
// breakers into the section concurrently.)
func TestHALeaseLockMutualExclusion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "primary.lease")
	a := openHALease(path, "a", time.Second, nil)
	b := openHALease(path, "b", time.Second, nil)
	ctr := filepath.Join(dir, "counter")
	if err := os.WriteFile(ctr, []byte("0"), 0o644); err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		l := a
		if i%2 == 1 {
			l = b
		}
		wg.Add(1)
		go func(l *haLease) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := l.withLock(func() error {
					data, err := os.ReadFile(ctr)
					if err != nil {
						return err
					}
					n, err := strconv.Atoi(strings.TrimSpace(string(data)))
					if err != nil {
						return err
					}
					return os.WriteFile(ctr, []byte(strconv.Itoa(n+1)), 0o644)
				}); err != nil {
					t.Errorf("withLock: %v", err)
					return
				}
			}
		}(l)
	}
	wg.Wait()

	data, err := os.ReadFile(ctr)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := strconv.Atoi(strings.TrimSpace(string(data))); got != goroutines*rounds {
		t.Fatalf("counter = %d after %d locked increments — lost updates mean the lock is not mutually exclusive", got, goroutines*rounds)
	}
}

// TestRepHubTrimsAckedRecords: acknowledged records leave the hub's
// retained window (no unbounded growth), offsets stay logical across
// the trim, and an offset below the window is reported as trimmed
// rather than silently served from the wrong position.
func TestRepHubTrimsAckedRecords(t *testing.T) {
	h := newRepHub()
	h.setBase(1)
	for i := 0; i < 100; i++ {
		h.publish("service", []byte(strconv.Itoa(i)))
	}
	h.ack("service", 100)
	if lag := h.lag(); lag != 0 {
		t.Fatalf("lag after full ack = %d, want 0", lag)
	}
	st := h.stream("service")
	st.mu.Lock()
	retained, start := len(st.recs), st.start
	st.mu.Unlock()
	if retained != 0 || start != 100 {
		t.Fatalf("after ack(100): retained=%d start=%d, want 0 and 100", retained, start)
	}

	h.publish("service", []byte("fresh"))
	recs, _, _, ok := st.from(100)
	if !ok || len(recs) != 1 || string(recs[0]) != "fresh" {
		t.Fatalf("from(100) after trim = (%d recs, ok=%v), want the single post-trim record", len(recs), ok)
	}
	if _, _, _, ok := st.from(50); ok {
		t.Fatal("from(50) reported ok for a trimmed offset — must demand a rebase instead")
	}

	h.rebase("service", [][]byte{[]byte("snap")})
	recs, _, gen, ok := st.from(0)
	if !ok || len(recs) != 1 || string(recs[0]) != "snap" || gen != 1 {
		t.Fatalf("after rebase: recs=%d gen=%d ok=%v, want the snapshot at offset 0 under gen 1", len(recs), gen, ok)
	}
	if hist := h.historyOf("service"); hist != "1.1" {
		t.Fatalf("history after rebase = %q, want 1.1", hist)
	}
}

// TestHAAssignIntentJournalFailureBlocksDispatch: when the durable
// assign intent cannot be written, the dispatch RPC must never leave
// the coordinator — otherwise a crash between RPC and record reopens
// the double-run window the intent exists to close.
func TestHAAssignIntentJournalFailureBlocksDispatch(t *testing.T) {
	var rpcs atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			rpcs.Add(1)
		}
		service.HTTPError(w, http.StatusInternalServerError, "unexpected RPC")
	}))
	defer fake.Close()

	_, coord := startCoordinator(t, Options{
		Service:      service.Options{QueueSize: 8, Workers: 2, MaxAttempts: 1, DataDir: t.TempDir(), NoSync: true},
		LeaseTTL:     time.Hour,
		PollInterval: 2 * time.Millisecond,
	})
	registerWorker(t, coord.URL, fake.URL)

	// Arm after registration so only the assign intent (and harmless
	// service-journal appends, which are counted-not-escalated) fail.
	if err := failpoint.Enable("journal/append", "error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisableAll)

	st, resp := submitSpec(t, coord.URL, testSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	got := waitState(t, coord.URL, st.ID, service.StateFailed, 10*time.Second)
	if !strings.Contains(got.Error, "intent not durable") {
		t.Fatalf("job error = %q, want the assign-intent refusal", got.Error)
	}
	if n := rpcs.Load(); n != 0 {
		t.Fatalf("worker saw %d dispatch RPCs despite the intent never becoming durable, want 0", n)
	}
	stats := serverStats(t, coord.URL)
	if stats.Cluster["journal_errors"] == 0 {
		t.Fatal("cluster journal_errors = 0, want the failed intent append counted")
	}
}

// TestHARestartedPrimaryDefersToPromotedStandby: a designated primary
// that crashes and is auto-restarted while the standby has promoted
// must join as standby instead of re-acquiring the lease — stealing it
// back would fence the promoted node and wipe the only complete history
// of work acknowledged during the outage.
func TestHARestartedPrimaryDefersToPromotedStandby(t *testing.T) {
	const ttl = 150 * time.Millisecond
	root := t.TempDir()
	lease := filepath.Join(root, "primary.lease")
	mkOpts := func(sub string, standby bool, peer string) HAOptions {
		return HAOptions{
			Coordinator: Options{
				Service:      service.Options{QueueSize: 16, Workers: 2, DataDir: filepath.Join(root, sub), NoSync: true},
				LeaseTTL:     time.Hour,
				PollInterval: 2 * time.Millisecond,
			},
			Standby:   standby,
			Peer:      peer,
			LeasePath: lease,
			LeaseTTL:  ttl,
			Logf:      t.Logf,
		}
	}
	boot := func(opts HAOptions) (*HANode, *httptest.Server) {
		n, err := NewHANode(opts)
		if err != nil {
			t.Fatalf("NewHANode: %v", err)
		}
		n.Start()
		ts := httptest.NewServer(n)
		t.Cleanup(func() {
			ts.Close()
			dctx, cancel := context.WithCancel(context.Background())
			cancel()
			n.Drain(dctx)
		})
		return n, ts
	}

	p, tsP := boot(mkOpts("a", false, ""))
	s, tsS := boot(mkOpts("b", true, tsP.URL))

	crashHANode(p, tsP)
	waitCond(t, 10*time.Second, "standby promotion", func() bool { return s.Role() == HAPrimary })
	epoch := s.currentEpoch()

	// systemd restarts the old primary with its usual flags — designated
	// primary, same data dir — while the promoted peer is serving.
	p2, err := NewHANode(mkOpts("a", false, tsS.URL))
	if err != nil {
		t.Fatalf("restarted primary: %v", err)
	}
	if got := p2.Role(); got != HAStandby {
		t.Fatalf("restarted primary role = %s, want standby (deference to the promoted peer)", got)
	}
	p2.Start()
	t.Cleanup(func() {
		dctx, cancel := context.WithCancel(context.Background())
		cancel()
		p2.Drain(dctx)
	})

	// Several TTLs later the promoted node must still be the primary on
	// the same epoch — nothing stole the lease back.
	time.Sleep(3 * ttl)
	if got := s.Role(); got != HAPrimary {
		t.Fatalf("promoted standby role = %s after old primary restarted, want primary", got)
	}
	if got := s.currentEpoch(); got != epoch {
		t.Fatalf("lease epoch moved %d -> %d: the restarted primary stole the lease", epoch, got)
	}
}

// readServiceFinishIDs reads a service journal's segment files directly
// and returns the IDs of jobs with a done finish record.
func readServiceFinishIDs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Mirrors the service journal record's wire shape (the fields this
	// assertion needs).
	type svcRecord struct {
		Type  string `json:"type"`
		ID    string `json:"id"`
		State string `json:"state"`
	}
	out := make(map[string]bool)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(data)
		for {
			payload, err := journal.ReadFrame(rd)
			if err != nil {
				if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
					break
				}
				t.Fatalf("read %s: %v", name, err)
			}
			if payload == nil {
				continue
			}
			var rec svcRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatalf("decode %s: %v", name, err)
			}
			if rec.Type == "finish" && rec.State == "done" {
				out[rec.ID] = true
			}
		}
	}
	return out
}

// TestHAFollowerResyncAcrossPrimaryRestarts reproduces the reviewed
// divergence: every primary boot replays then COMPACTS its journal, so
// after a second boot the on-disk record count is smaller than what the
// previous incarnation's hub served — a follower resuming by raw count
// would silently skip records. With history-tagged streams the follower
// must instead wipe, resync, and end up holding the finish record of
// every job across all boots.
func TestHAFollowerResyncAcrossPrimaryRestarts(t *testing.T) {
	const ttl = 5 * time.Second // long: restart gaps never trip the standby's silence window
	root := t.TempDir()
	lease := filepath.Join(root, "primary.lease")

	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error {
		j.SetResult(&core.Report{Detected: true}, nil)
		return nil
	})

	// The primary must come back on the SAME address each boot so the
	// standby's followers reconnect to it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := ln.Addr().String()
	primaryURL := "http://" + primaryAddr

	mkPrimary := func(ln net.Listener) (*HANode, *httptest.Server) {
		n, err := NewHANode(HAOptions{
			Coordinator: Options{
				Service:      service.Options{QueueSize: 16, Workers: 2, DataDir: filepath.Join(root, "a"), NoSync: true},
				LeaseTTL:     time.Hour,
				PollInterval: 2 * time.Millisecond,
			},
			LeasePath: lease,
			LeaseTTL:  ttl,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatalf("NewHANode(primary): %v", err)
		}
		n.Start()
		ts := httptest.NewUnstartedServer(n)
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		return n, ts
	}
	p, tsP := mkPrimary(ln)

	s, err := NewHANode(HAOptions{
		Coordinator: Options{
			Service:      service.Options{QueueSize: 16, Workers: 2, DataDir: filepath.Join(root, "b"), NoSync: true},
			LeaseTTL:     time.Hour,
			PollInterval: 2 * time.Millisecond,
		},
		Standby:   true,
		Peer:      primaryURL,
		LeasePath: lease,
		LeaseTTL:  ttl,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("NewHANode(standby): %v", err)
	}
	s.Start()
	t.Cleanup(func() {
		dctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Drain(dctx)
	})

	var ids []string
	submitAndFinish := func(n int) {
		for i := 0; i < n; i++ {
			st, resp := submitSpec(t, primaryURL, testSpec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			ids = append(ids, st.ID)
			waitState(t, primaryURL, st.ID, service.StateDone, 10*time.Second)
		}
	}
	waitLagZero := func() {
		waitCond(t, 10*time.Second, "replication catch-up", func() bool {
			lag, _ := haStat(t, primaryURL, "ha_peer_lag_records").(float64)
			return lag == 0
		})
	}

	registerWorker(t, primaryURL, worker.URL)
	submitAndFinish(2)
	waitLagZero()

	for boot := 0; boot < 2; boot++ {
		crashHANode(p, tsP)
		ln, err := net.Listen("tcp", primaryAddr)
		if err != nil {
			t.Fatalf("re-listen boot %d: %v", boot+2, err)
		}
		p, tsP = mkPrimary(ln)
		// The new incarnation is on the same address. The shared keep-alive
		// pool may still hold (or asynchronously regain, via the standby's
		// reconnecting follower) sockets to the dead incarnation, and POSTs
		// are not auto-retried on a stale conn — so register over a fresh
		// non-pooled connection, with a short retry, then flush the pool
		// for the helpers that follow.
		registerWorkerFresh(t, primaryURL, worker.URL)
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		submitAndFinish(1)
		waitLagZero()
	}
	// Drain before closing the listener: the standby's follower streams
	// are long-lived requests that only end once h.stop closes, and
	// httptest's Close waits for in-flight handlers.
	t.Cleanup(func() {
		dctx, cancel := context.WithCancel(context.Background())
		cancel()
		p.Drain(dctx)
		tsP.Close()
	})

	got := readServiceFinishIDs(t, filepath.Join(root, "b", "journal"))
	for _, id := range ids {
		if !got[id] {
			t.Fatalf("standby journal copy is missing the finish record for %s across restarts (has %v)", id, got)
		}
	}
}

// TestHAFreshStandbyResyncAfterTrim: once the original standby has
// acknowledged everything (and the hub trimmed its window), a BRAND-NEW
// standby joining from offset zero must be re-seeded via snapshot
// rebase — and a later orderly handover must leave it serving every
// finished job with its report.
func TestHAFreshStandbyResyncAfterTrim(t *testing.T) {
	const ttl = 150 * time.Millisecond
	root := t.TempDir()
	lease := filepath.Join(root, "primary.lease")
	mk := func(sub string, standby bool, peer string) (*HANode, *httptest.Server) {
		n, err := NewHANode(HAOptions{
			Coordinator: Options{
				Service:      service.Options{QueueSize: 16, Workers: 2, DataDir: filepath.Join(root, sub), NoSync: true},
				LeaseTTL:     time.Hour,
				PollInterval: 2 * time.Millisecond,
			},
			Standby:   standby,
			Peer:      peer,
			LeasePath: lease,
			LeaseTTL:  ttl,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatalf("NewHANode(%s): %v", sub, err)
		}
		n.Start()
		ts := httptest.NewServer(n)
		t.Cleanup(func() {
			ts.Close()
			dctx, cancel := context.WithCancel(context.Background())
			cancel()
			n.Drain(dctx)
		})
		return n, ts
	}
	_, worker := startWorker(t, func(ctx context.Context, j *service.Job) error {
		j.SetResult(&core.Report{Detected: true}, nil)
		return nil
	})
	p, tsP := mk("a", false, "")
	s1, _ := mk("b", true, tsP.URL)
	registerWorker(t, tsP.URL, worker.URL)

	var ids []string
	for i := 0; i < 2; i++ {
		st, resp := submitSpec(t, tsP.URL, testSpec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
		waitState(t, tsP.URL, st.ID, service.StateDone, 10*time.Second)
	}
	waitCond(t, 10*time.Second, "replication catch-up", func() bool {
		lag, _ := haStat(t, tsP.URL, "ha_peer_lag_records").(float64)
		return lag == 0
	})
	// Full ack means the hub trimmed the acknowledged prefix.
	waitCond(t, 10*time.Second, "hub trim after full ack", func() bool {
		st := p.hub.stream("service")
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.start > 0 && len(st.recs) == 0
	})

	// The original standby leaves; a fresh one (empty data dir) joins.
	// The lag already reads 0 before the fresh standby connects (the old
	// one acknowledged everything), so the resync wait also requires
	// every trimmed stream to have been re-seeded by a snapshot rebase,
	// which bumps its generation.
	genOf := func(name string) (gen, start int) {
		st := p.hub.stream(name)
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.gen, st.start
	}
	trimmedGen := map[string]int{}
	for _, name := range []string{"service", "cluster"} {
		if gen, start := genOf(name); start > 0 {
			trimmedGen[name] = gen
		}
	}
	dctx, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Drain(dctx)
	s2, tsS2 := mk("c", true, tsP.URL)

	waitCond(t, 10*time.Second, "fresh standby resync via snapshot rebase", func() bool {
		for name, gen := range trimmedGen {
			if g, _ := genOf(name); g == gen {
				return false
			}
		}
		lag, _ := haStat(t, tsP.URL, "ha_peer_lag_records").(float64)
		return lag == 0
	})

	// Orderly handover: the release lets the fresh standby take over
	// immediately, and it must serve the full (snapshot-derived) history.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := p.Drain(hctx); err != nil {
		t.Fatalf("primary drain: %v", err)
	}
	hcancel()
	tsP.Close()
	waitCond(t, 10*time.Second, "fresh standby promotion", func() bool { return s2.Role() == HAPrimary })
	for _, id := range ids {
		got := getStatus(t, tsS2.URL, id)
		if got.State != service.StateDone || got.Report == nil {
			t.Fatalf("job %s on promoted fresh standby = %q (report %v), want done with report", id, got.State, got.Report != nil)
		}
	}
}
