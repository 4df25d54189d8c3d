package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"superpose/internal/failpoint"
	"superpose/internal/retry"
	"superpose/internal/service"
)

// HARole is a node's position in the HA pair.
type HARole string

const (
	// HAPrimary holds the lease and serves the full coordinator API.
	HAPrimary HARole = "primary"
	// HAStandby tails the primary's journals and watches the lease.
	HAStandby HARole = "standby"
	// HAPromoting has decided to take over and is acquiring the lease.
	HAPromoting HARole = "promoting"
	// HAReplaying holds the lease and is rebuilding the coordinator
	// from its local journal copy.
	HAReplaying HARole = "replaying"
	// HADemoted lost the lease and is fencing/draining before
	// rejoining as standby.
	HADemoted HARole = "demoted"
)

// HAOptions configures one node of an HA coordinator pair.
type HAOptions struct {
	// Coordinator is the base configuration the node builds its
	// Coordinator from whenever it is (or becomes) primary.
	// Service.DataDir is required: the standby's journal copies, and
	// the promoted coordinator's replay, live there.
	Coordinator Options

	// Standby starts the node as the watching standby; otherwise it
	// acquires the lease at boot and serves as primary.
	Standby bool

	// Peer is the other coordinator's base URL — what the standby
	// tails, and what a demoted primary re-follows.
	Peer string

	// LeasePath is the shared primary-lease file (see halease.go).
	LeasePath string
	// LeaseTTL is the primary lease TTL (default: Coordinator.LeaseTTL,
	// i.e. the worker-lease TTL — one failover clock for the cluster).
	LeaseTTL time.Duration

	// Client is the HTTP client for replication and acks (default
	// http.DefaultClient).
	Client *http.Client
	// Now is the local clock (default time.Now); skew tests inject
	// offset clocks per node.
	Now func() time.Time
	// Logf, when set, receives role transitions and failover events.
	Logf func(format string, args ...any)
}

// HANode is one coordinator of an HA pair: a role state machine
// (standby → promoting → replaying → primary; primary → demoted →
// standby) around an embedded Coordinator that exists only while the
// node holds the primary lease. It implements the same Handler/Start/
// Drain surface as Coordinator, so cmd/superposed serves either.
type HANode struct {
	opts  HAOptions
	mux   *http.ServeMux
	hub   *repHub
	lease *haLease
	jit   *retry.Jitter
	now   func() time.Time
	logf  func(format string, args ...any)

	mu        sync.Mutex
	role      HARole
	coord     *Coordinator
	followCtx context.CancelFunc
	followWg  *sync.WaitGroup
	epoch     uint64

	failovers atomic.Uint64
	demotions atomic.Uint64
	peerAcked atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewHANode assembles one node of the pair. The designated primary
// acquires the lease and builds its coordinator before returning (so a
// listener that follows serves a working cluster API immediately); a
// standby returns in watching state and Start launches the followers.
func NewHANode(opts HAOptions) (*HANode, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = opts.Coordinator.withDefaults().LeaseTTL
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	h := &HANode{
		opts: opts,
		mux:  http.NewServeMux(),
		hub:  newRepHub(),
		jit:  retry.NewJitter(0x4AFA170B),
		now:  opts.Now,
		logf: opts.Logf,
		stop: make(chan struct{}),
	}
	h.lease = openHALease(opts.LeasePath, h.ownerName(), opts.LeaseTTL, opts.Now)
	h.mux.HandleFunc("GET /ha/v1/replicate", h.handleReplicate)
	h.mux.HandleFunc("POST /ha/v1/replicate/ack", h.handleAck)
	h.mux.HandleFunc("GET /ha/v1/role", h.handleRole)

	if opts.Standby {
		h.role = HAStandby
		return h, nil
	}
	// Boot-time deference: a designated primary that crashed and was
	// auto-restarted must NOT steal the lease back from a peer that
	// promoted during the outage — the epoch bump would fence the new
	// primary, which demotes and wipes the only complete history of the
	// work it acknowledged. If the peer is actively primary (or taking
	// over), or the lease is held by someone else, join as standby; this
	// node's pre-crash journals are a stale timeline either way.
	if h.peerIsActive() || h.leaseHeldElsewhere() {
		h.logf("ha: peer is the active primary; deferring and joining as standby")
		h.wipeLocalJournals()
		h.role = HAStandby
		return h, nil
	}
	epoch, err := h.lease.Acquire()
	if err != nil {
		return nil, err
	}
	h.epoch = epoch
	h.hub.setBase(epoch)
	coord, err := h.buildCoordinator()
	if err != nil {
		return nil, err
	}
	h.coord = coord
	h.role = HAPrimary
	return h, nil
}

// peerIsActive probes the peer's /ha/v1/role: true when the peer is
// serving (or in the middle of taking over) as primary. Probe failures
// read as inactive — a dead peer must not block the boot.
func (h *HANode) peerIsActive() bool {
	if h.opts.Peer == "" {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.opts.Peer+"/ha/v1/role", nil)
	if err != nil {
		return false
	}
	resp, err := h.opts.Client.Do(req)
	if err != nil {
		return false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var body struct {
		Role string `json:"role"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err != nil {
		return false
	}
	switch HARole(body.Role) {
	case HAPrimary, HAPromoting, HAReplaying:
		return true
	}
	return false
}

// leaseHeldElsewhere reports whether the lease file names a different
// owner — a second line of defence for when the promoted peer is
// momentarily unreachable at probe time.
func (h *HANode) leaseHeldElsewhere() bool {
	st, err := h.lease.Observe()
	if err != nil {
		return false
	}
	return st.Owner != "" && st.Owner != h.ownerName()
}

// wipeLocalJournals discards the node's journal copies — used when the
// local history is a dead timeline (demotion, boot-time deference).
func (h *HANode) wipeLocalJournals() {
	os.RemoveAll(h.opts.Coordinator.Service.DataDir + "/journal")
	os.RemoveAll(h.opts.Coordinator.Service.DataDir + "/cluster")
}

// ownerName derives the lease owner identity from the role the node
// was launched in — stable across its restarts, distinct from the peer.
func (h *HANode) ownerName() string {
	host, _ := os.Hostname()
	kind := "primary"
	if h.opts.Standby {
		kind = "standby"
	}
	return kind + "@" + host + ":" + h.opts.Coordinator.Service.DataDir
}

// Role returns the node's current role.
func (h *HANode) Role() HARole {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role
}

// Coordinator returns the embedded coordinator while primary (nil
// otherwise) — for tests and stats.
func (h *HANode) Coordinator() *Coordinator {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.coord
}

// Failovers returns how many times this node promoted itself.
func (h *HANode) Failovers() uint64 { return h.failovers.Load() }

// buildCoordinator constructs the coordinator over the node's DataDir
// with the HA hooks chained in: journal taps feed the replication hub
// (seeded by the replayed history), admission is fenced by role, and
// /v1/stats gains the ha object.
func (h *HANode) buildCoordinator() (*Coordinator, error) {
	opts := h.opts.Coordinator
	opts.Service.JournalTap = func(rec []byte) { h.hub.publish("service", rec) }
	opts.ClusterJournalTap = func(rec []byte) { h.hub.publish("cluster", rec) }
	opts.Admit = func(service.JobSpec) error {
		if role := h.Role(); role != HAPrimary {
			return &service.UnavailableError{Reason: string(role), RetryAfter: h.jit.Around(h.opts.LeaseTTL / 2)}
		}
		return nil
	}
	opts.ExtraStats = func(st *service.Stats) { st.HA = h.haStats() }
	return New(opts)
}

// haStats builds the /v1/stats "ha" object.
func (h *HANode) haStats() map[string]any {
	return map[string]any{
		"ha_role":             string(h.Role()),
		"ha_peer":             h.opts.Peer,
		"ha_peer_lag_records": h.hub.lag(),
		"failovers_total":     h.failovers.Load(),
		"demotions_total":     h.demotions.Load(),
		"lease_epoch":         h.currentEpoch(),
	}
}

func (h *HANode) currentEpoch() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// Start launches the node's background machinery: the coordinator and
// lease-renewal loop on a primary, the followers and lease watch on a
// standby.
func (h *HANode) Start() {
	h.mu.Lock()
	role := h.role
	coord := h.coord
	h.mu.Unlock()
	if role == HAPrimary {
		coord.Start()
		h.wg.Add(1)
		go h.renewLoop()
		return
	}
	h.startFollowers()
	h.wg.Add(1)
	go h.watchLoop()
}

// Drain shuts the node down: followers stop, the coordinator (if
// primary) drains, and the lease is released so the peer can take over
// without waiting out the silence window.
func (h *HANode) Drain(ctx context.Context) error {
	h.stopOnce.Do(func() { close(h.stop) })
	h.stopFollowers()
	h.mu.Lock()
	coord := h.coord
	h.coord = nil
	h.mu.Unlock()
	var err error
	if coord != nil {
		err = coord.Drain(ctx)
	}
	h.lease.Release()
	h.wg.Wait()
	return err
}

// ServeHTTP routes by role: replication endpoints are always the
// node's own; everything else is the coordinator's while primary, and
// an honest 503 (Retry-After, role reason) while not — a failover is a
// bounded stall for clients, never a connection refused.
func (h *HANode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/ha/v1/") {
		h.mux.ServeHTTP(w, r)
		return
	}
	h.mu.Lock()
	role, coord := h.role, h.coord
	h.mu.Unlock()
	if role == HAPrimary && coord != nil {
		coord.ServeHTTP(w, r)
		return
	}
	h.serveNotPrimary(w, r, role)
}

// serveNotPrimary answers for a node that cannot serve the cluster
// API: health probes report honestly, stats expose the ha object, and
// everything else is 503 + jittered Retry-After.
func (h *HANode) serveNotPrimary(w http.ResponseWriter, r *http.Request, role HARole) {
	switch {
	case r.URL.Path == "/healthz" || r.URL.Path == "/healthz/live":
		service.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "ha_role": string(role)})
	case r.URL.Path == "/healthz/ready":
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "not_ready",
			"reasons": []string{string(role)},
		})
	case r.URL.Path == "/v1/stats":
		service.WriteJSON(w, http.StatusOK, service.Stats{HA: h.haStats()})
	default:
		w.Header().Set("Retry-After", service.RetryAfterSecs(h.jit.Around(h.opts.LeaseTTL/2)))
		service.HTTPError(w, http.StatusServiceUnavailable,
			errNotPrimary.Error()+" (role "+string(role)+")")
	}
}

// handleReplicate streams a journal to the peer's follower. Only a
// primary has an authoritative history to offer.
func (h *HANode) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if h.Role() != HAPrimary {
		service.HTTPError(w, http.StatusServiceUnavailable, errNotPrimary.Error())
		return
	}
	h.hub.serveStream(w, r, h.opts.LeaseTTL/3, h.stop, h.rebaseStream)
}

// rebaseStream re-seeds a stream from the coordinator's materialized
// state — compaction has trimmed history a fresh follower needs. The
// snapshot is taken under the journal append lock, so every tap
// published after the rebase strictly follows the snapshot records.
func (h *HANode) rebaseStream(name string) bool {
	h.mu.Lock()
	coord := h.coord
	h.mu.Unlock()
	if coord == nil {
		return false
	}
	switch name {
	case "service":
		coord.Service().SnapshotUnderJournalLock(func(records [][]byte) {
			h.hub.rebase(name, records)
		})
	case "cluster":
		coord.SnapshotClusterUnderJournalLock(func(records [][]byte) {
			h.hub.rebase(name, records)
		})
	default:
		return false
	}
	return true
}

// handleAck records the peer's durable replication progress.
func (h *HANode) handleAck(w http.ResponseWriter, r *http.Request) {
	var req AckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Stream == "" {
		service.HTTPError(w, http.StatusBadRequest, "ack: stream and count required")
		return
	}
	h.hub.ack(req.Stream, req.Count)
	h.peerAcked.Add(1)
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleRole reports the node's role — the discovery probe clients and
// scripts use to find the current primary.
func (h *HANode) handleRole(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"role":  string(h.Role()),
		"epoch": h.currentEpoch(),
	})
}

// startFollowers launches one follower per replicated stream.
func (h *HANode) startFollowers() {
	ctx, cancel := context.WithCancel(context.Background())
	wg := &sync.WaitGroup{}
	h.mu.Lock()
	h.followCtx = cancel
	h.followWg = wg
	h.mu.Unlock()
	stall := 3 * h.opts.LeaseTTL
	if stall < 5*time.Second {
		stall = 5 * time.Second
	}
	for _, stream := range []struct{ name, dir string }{
		{"service", h.opts.Coordinator.Service.DataDir + "/journal"},
		{"cluster", h.opts.Coordinator.Service.DataDir + "/cluster"},
	} {
		f := &follower{
			name:   stream.name,
			peer:   h.opts.Peer,
			dir:    stream.dir,
			nosync: h.opts.Coordinator.Service.NoSync,
			client: h.opts.Client,
			logf:   h.logf,
			stall:  stall,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.run(ctx)
		}()
	}
}

// stopFollowers cancels and waits out the followers; their journals
// are closed, leaving the directories free for coordinator replay.
func (h *HANode) stopFollowers() {
	h.mu.Lock()
	cancel, wg := h.followCtx, h.followWg
	h.followCtx, h.followWg = nil, nil
	h.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if wg != nil {
		wg.Wait()
	}
}

// watchLoop is the standby's lease watch: observe at TTL/3, promote
// after a full TTL of silence on the LOCAL clock (see halease.go for
// why this is skew-immune).
func (h *HANode) watchLoop() {
	defer h.wg.Done()
	interval := h.opts.LeaseTTL / 3
	if interval < 2*time.Millisecond {
		interval = 2 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var watch leaseWatch
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			st, err := h.lease.Observe()
			if err != nil {
				continue
			}
			if silent := watch.update(st, h.now()); silent < h.opts.LeaseTTL {
				continue
			}
			// Promotion chaos window: an armed error aborts this attempt
			// (the watch keeps observing); a sleep stretches the takeover.
			if err := failpoint.Inject("cluster/ha/promote"); err != nil {
				h.logf("ha: promotion aborted by chaos: %v", err)
				watch = leaseWatch{}
				continue
			}
			if h.promote() {
				return // renewLoop owns the node now
			}
			watch = leaseWatch{}
		}
	}
}

// promote drives standby → promoting → replaying → primary. A false
// return means the takeover failed (lease contention, replay error) and
// the node fell back to watching.
func (h *HANode) promote() bool {
	h.setRole(HAPromoting)
	h.logf("ha: promoting (lease silent for a full TTL)")
	h.stopFollowers()

	epoch, err := h.lease.Acquire()
	if err != nil {
		h.logf("ha: lease acquire failed: %v", err)
		h.setRole(HAStandby)
		h.startFollowers()
		return false
	}

	h.setRole(HAReplaying)
	h.hub.reset()
	h.hub.setBase(epoch)
	coord, err := h.buildCoordinator()
	if err != nil {
		// Replay failed (corrupt copy?): release and fall back — the
		// peer (or an operator) gets another shot.
		h.logf("ha: replay failed: %v", err)
		h.lease.Release()
		h.setRole(HAStandby)
		h.startFollowers()
		return false
	}
	coord.Start()

	h.mu.Lock()
	h.coord = coord
	h.epoch = epoch
	h.role = HAPrimary
	h.mu.Unlock()
	h.failovers.Add(1)
	h.logf("ha: promoted to primary (epoch %d)", epoch)

	h.wg.Add(1)
	go h.renewLoop()
	return true
}

// renewLoop keeps the primary lease fresh at TTL/3. The node
// self-fences — demotes — as soon as the lease is seen held elsewhere,
// or after TTL/2 on the local clock without a successful renewal
// (guaranteeing the fence lands before a standby's TTL silence
// threshold can, regardless of clock offset).
func (h *HANode) renewLoop() {
	defer h.wg.Done()
	interval := h.opts.LeaseTTL / 3
	if interval < 2*time.Millisecond {
		interval = 2 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	lastOK := h.now()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			err := h.lease.Renew()
			if err == nil {
				lastOK = h.now()
				continue
			}
			if errors.Is(err, ErrHALeaseLost) {
				h.logf("ha: lease lost: %v", err)
				h.demote()
				return
			}
			if h.now().Sub(lastOK) > h.opts.LeaseTTL/2 {
				h.logf("ha: no successful lease renewal for TTL/2 (%v); self-fencing", err)
				h.demote()
				return
			}
			h.logf("ha: lease renewal failed (%v); retrying", err)
		}
	}
}

// demote fences a deposed primary: the role flips first (every
// endpoint 503s and the Admit hook refuses from that instant), the
// coordinator drains, the node's journals — now a divergent timeline —
// are wiped, and the node rejoins as a standby tailing the peer.
func (h *HANode) demote() {
	h.mu.Lock()
	coord := h.coord
	h.coord = nil
	h.role = HADemoted
	h.epoch = 0
	h.mu.Unlock()
	h.demotions.Add(1)

	if coord != nil {
		dctx, cancel := context.WithTimeout(context.Background(), h.opts.LeaseTTL)
		coord.Drain(dctx)
		cancel()
	}
	// The deposed timeline may contain records the new primary never
	// saw; a follower resumes by record COUNT, so the local copy must
	// be a strict prefix of the peer's history — wipe and re-tail from
	// zero.
	h.wipeLocalJournals()
	h.hub.reset()

	select {
	case <-h.stop:
		return
	default:
	}
	h.setRole(HAStandby)
	h.logf("ha: rejoined as standby")
	h.startFollowers()
	h.wg.Add(1)
	go h.watchLoop()
}

func (h *HANode) setRole(role HARole) {
	h.mu.Lock()
	h.role = role
	h.mu.Unlock()
}
