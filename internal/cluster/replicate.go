package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"superpose/internal/failpoint"
	"superpose/internal/journal"
	"superpose/internal/retry"
	"superpose/internal/service"
)

// HA journal replication. The primary does not copy segment files —
// compaction rewrites those underneath a byte-level tail. Instead a
// repHub retains the LOGICAL record history of each journal ("service"
// jobs, "cluster" assignments), seeded from replay at startup and fed
// by the journal taps on every durable append. A follower on the
// standby tails a stream over HTTP — each record framed exactly like an
// on-disk segment record (journal.WriteFrame) — and appends it to its
// own local journal, so a promotion is nothing but a normal journal
// replay of the local copy. Replay is last-record-wins, which makes the
// scheme immune to duplicate history across reconnects and compactions.
//
// Offsets are only meaningful within one HISTORY of a stream: the hub
// renumbers whenever the primary's journal is rebuilt (boot, promotion,
// snapshot rebase), so every stream carries a history tag
// "<lease-epoch>.<generation>". The follower persists the tag beside
// its local journal and sends it back on reconnect; a mismatch means
// its saved offset counts records of a dead timeline, so the primary
// answers 409 and the follower wipes its copy and re-tails from zero.
// Without the tag, a primary that restarted twice (any restart after a
// compaction) would hand the follower a shrunken stream and from(n)
// would silently skip every record below the stale offset.

// AckRequest is the body of POST /ha/v1/replicate/ack: how many records
// of a stream the standby has made durable locally. It doubles as the
// standby's liveness signal for ha_peer_lag_records.
type AckRequest struct {
	Stream string `json:"stream"`
	Count  int    `json:"count"`
}

// repHub retains the logical record history per stream and tracks what
// the peer has acknowledged. Acknowledged records are trimmed; a
// follower asking for a trimmed offset is re-seeded from a snapshot of
// the coordinator's materialized state (serveStream's rebase hook).
type repHub struct {
	mu      sync.Mutex
	base    string // history base: the lease epoch this hub serves under
	streams map[string]*repStream
	acked   map[string]int
}

type repStream struct {
	mu    sync.Mutex
	recs  [][]byte
	start int           // logical offset of recs[0]; everything below is trimmed
	gen   int           // bumped on every rebase: invalidates follower offsets
	wait  chan struct{} // closed and replaced on every publish
}

func newRepHub() *repHub {
	return &repHub{streams: make(map[string]*repStream), acked: make(map[string]int)}
}

// setBase stamps the history base (the lease epoch). Every Acquire
// bumps the epoch, so every primary boot or promotion starts a fresh
// history and stale follower offsets are rejected, not misapplied.
func (h *repHub) setBase(epoch uint64) {
	h.mu.Lock()
	h.base = strconv.FormatUint(epoch, 10)
	h.mu.Unlock()
}

// stream returns (creating) the named stream.
func (h *repHub) stream(name string) *repStream {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.streams[name]
	if !ok {
		st = &repStream{wait: make(chan struct{})}
		h.streams[name] = st
	}
	return st
}

// historyOf returns the stream's current history tag, "<epoch>.<gen>".
func (h *repHub) historyOf(name string) string {
	st := h.stream(name)
	h.mu.Lock()
	base := h.base
	h.mu.Unlock()
	st.mu.Lock()
	gen := st.gen
	st.mu.Unlock()
	return base + "." + strconv.Itoa(gen)
}

// publish appends one record to a stream and wakes blocked senders.
func (h *repHub) publish(name string, payload []byte) {
	st := h.stream(name)
	rec := make([]byte, len(payload))
	copy(rec, payload)
	st.mu.Lock()
	st.recs = append(st.recs, rec)
	close(st.wait)
	st.wait = make(chan struct{})
	st.mu.Unlock()
}

// from snapshots a stream's records at logical offsets >= n, plus the
// publish-wakeup channel and the generation the snapshot belongs to.
// ok is false when n predates the retained window (trimmed): the caller
// must rebase the stream before serving.
func (st *repStream) from(n int) (recs [][]byte, wait <-chan struct{}, gen int, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n < st.start {
		return nil, st.wait, st.gen, false
	}
	if i := n - st.start; i < len(st.recs) {
		recs = st.recs[i:len(st.recs):len(st.recs)]
	}
	return recs, st.wait, st.gen, true
}

// rebase replaces a stream's retained window with a snapshot of the
// journal's compacted logical state, renumbered from zero under a new
// generation. Any connection serving the old generation drops (the
// follower reconnects, sees the history change, and wipes).
func (h *repHub) rebase(name string, records [][]byte) {
	st := h.stream(name)
	recs := make([][]byte, len(records))
	for i, r := range records {
		rec := make([]byte, len(r))
		copy(rec, r)
		recs[i] = rec
	}
	st.mu.Lock()
	st.recs = recs
	st.start = 0
	st.gen++
	close(st.wait)
	st.wait = make(chan struct{})
	st.mu.Unlock()
	h.mu.Lock()
	h.acked[name] = 0
	h.mu.Unlock()
}

// ack records the peer's durable count for a stream (monotone) and
// trims the retained window up to it — acknowledged records are durable
// on the standby and never re-sent, so holding them is pure leak.
func (h *repHub) ack(name string, count int) {
	h.mu.Lock()
	if count > h.acked[name] {
		h.acked[name] = count
	}
	h.mu.Unlock()
	st := h.stream(name)
	st.mu.Lock()
	if drop := count - st.start; drop > 0 {
		if drop > len(st.recs) {
			drop = len(st.recs)
		}
		// Fresh slice: release the trimmed records' backing array.
		st.recs = append([][]byte(nil), st.recs[drop:]...)
		st.start += drop
	}
	st.mu.Unlock()
}

// lag sums, across streams, how many published records the peer has
// not yet acknowledged.
func (h *repHub) lag() int {
	h.mu.Lock()
	streams := make(map[string]*repStream, len(h.streams))
	acked := make(map[string]int, len(h.acked))
	for k, v := range h.streams {
		streams[k] = v
	}
	for k, v := range h.acked {
		acked[k] = v
	}
	h.mu.Unlock()
	total := 0
	for name, st := range streams {
		st.mu.Lock()
		n := st.start + len(st.recs)
		st.mu.Unlock()
		if d := n - acked[name]; d > 0 {
			total += d
		}
	}
	return total
}

// reset drops all retained history and acks (demotion wipes the local
// journals; the hub must not resurrect the discarded timeline).
func (h *repHub) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, st := range h.streams {
		st.mu.Lock()
		st.recs = nil
		close(st.wait)
		st.wait = make(chan struct{})
		st.mu.Unlock()
	}
	h.streams = make(map[string]*repStream)
	h.acked = make(map[string]int)
}

// serveStream writes a stream to one follower connection: a frame per
// record from the requested offset, heartbeat frames when idle, until
// the connection dies, stop closes, or the stream is rebased under the
// connection. The follower's history tag is validated first — a
// mismatch (or an untagged resume above zero) gets 409 so the follower
// wipes and restarts; a fresh follower below the trimmed window
// triggers rebase (snapshot re-seed). The send failpoint drops the
// connection mid-stream (partition chaos).
func (h *repHub) serveStream(w http.ResponseWriter, r *http.Request, heartbeat time.Duration, stop <-chan struct{}, rebase func(stream string) bool) {
	name := r.URL.Query().Get("stream")
	if name == "" {
		service.HTTPError(w, http.StatusBadRequest, "replicate: stream parameter required")
		return
	}
	from, _ := strconv.Atoi(r.URL.Query().Get("from"))
	if from < 0 {
		from = 0
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		service.HTTPError(w, http.StatusInternalServerError, "replicate: streaming unsupported")
		return
	}

	hist := r.URL.Query().Get("history")
	cur := h.historyOf(name)
	if hist != "" && hist != cur {
		service.HTTPError(w, http.StatusConflict,
			fmt.Sprintf("replicate: stream %s history is %s, follower has %s", name, cur, hist))
		return
	}
	if hist == "" && from > 0 {
		// Records of unknown provenance: the offset cannot be trusted.
		service.HTTPError(w, http.StatusConflict,
			fmt.Sprintf("replicate: stream %s resume at %d without a history tag", name, from))
		return
	}

	st := h.stream(name)
	if _, _, _, ok := st.from(from); !ok {
		// The follower (necessarily fresh: hist=="" ⇒ from==0) predates
		// the retained window. Re-seed the stream from a snapshot.
		if rebase == nil || !rebase(name) {
			service.HTTPError(w, http.StatusServiceUnavailable, "replicate: stream snapshot unavailable")
			return
		}
		cur = h.historyOf(name)
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ha-History", cur)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	n := from
	genAt := -1
	for {
		recs, wait, gen, ok := st.from(n)
		if !ok || (genAt >= 0 && gen != genAt) {
			return // rebased under us: the follower must resync
		}
		genAt = gen
		for _, rec := range recs {
			if err := failpoint.Inject("cluster/ha/replicate/send"); err != nil {
				return // connection drops; the follower reconnects from its count
			}
			if err := journal.WriteFrame(w, rec); err != nil {
				return
			}
			n++
		}
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-stop:
			return
		case <-wait:
		case <-time.After(heartbeat):
			if err := journal.WriteFrame(w, nil); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// follower tails one stream of the peer's journal into a local journal
// directory. It reconnects with decorrelated-jitter backoff, resumes
// from its local record count (the stream offset), and acknowledges
// durable progress back to the primary. The stream's history tag is
// persisted beside the journal; when the primary reports a different
// history (409), the local copy counts records of a dead timeline and
// is wiped before re-tailing from zero.
type follower struct {
	name   string // stream name: "service" or "cluster"
	peer   string // primary's base URL
	dir    string // local journal directory
	nosync bool
	client *http.Client
	logf   func(format string, args ...any)
	stall  time.Duration // watchdog: max quiet time before reconnecting

	mu    sync.Mutex
	count int // records durable locally == stream offset
}

// offset returns how many records the follower has made durable.
func (f *follower) offset() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// historyPath is where the follower persists the stream's history tag.
// It lives inside the journal directory (segment scanning ignores it)
// so the demote-path RemoveAll wipes both together.
func (f *follower) historyPath() string {
	return f.dir + "/rep-history"
}

func (f *follower) storedHistory() string {
	data, err := os.ReadFile(f.historyPath())
	if err != nil {
		return ""
	}
	return string(bytes.TrimSpace(data))
}

// resetLocal discards the local journal copy and history tag: the
// primary's stream history no longer matches what these records were
// counted against.
func (f *follower) resetLocal(jnl *journal.Journal) error {
	jnl.Close()
	if err := os.RemoveAll(f.dir); err != nil {
		return err
	}
	f.mu.Lock()
	f.count = 0
	f.mu.Unlock()
	return nil
}

// run tails the stream until ctx dies. The local journal is opened per
// connection attempt so a torn tail from a crashed standby is truncated
// by the normal journal replay path before the resume offset is
// computed.
func (f *follower) run(ctx context.Context) {
	backoff := retry.Policy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 0x0F011073}.Backoff()
	for ctx.Err() == nil {
		err := f.tail(ctx)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			f.logf("ha follower %s: %v (reconnecting)", f.name, err)
		}
		retry.Sleep(ctx, backoff.Next())
	}
}

// tail opens the local journal, connects at the resume offset and
// appends frames until the stream breaks.
func (f *follower) tail(ctx context.Context) error {
	jnl, records, err := journal.Open(f.dir, journal.Options{NoSync: f.nosync})
	if err != nil {
		return err
	}
	defer jnl.Close()
	f.mu.Lock()
	f.count = len(records)
	from := f.count
	f.mu.Unlock()
	stored := f.storedHistory()

	// The stream context is cancelled by a stall watchdog when neither a
	// record nor a heartbeat frame arrives for several heartbeat
	// intervals — a half-open connection must not wedge replication.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stall := f.stall
	if stall <= 0 {
		stall = 5 * time.Second
	}
	watchdog := time.AfterFunc(stall, cancel)
	defer watchdog.Stop()

	target := fmt.Sprintf("%s/ha/v1/replicate?stream=%s&from=%d", f.peer, f.name, from)
	if stored != "" {
		target += "&history=" + url.QueryEscape(stored)
	}
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusConflict {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if err := f.resetLocal(jnl); err != nil {
			return fmt.Errorf("replicate %s: reset after history change: %w", f.name, err)
		}
		return fmt.Errorf("replicate %s: %s (local copy wiped, re-tailing from zero)",
			f.name, bytes.TrimSpace(msg))
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replicate %s: HTTP %d: %s", f.name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if hdr := resp.Header.Get("X-Ha-History"); hdr != "" {
		if stored == "" {
			if err := os.WriteFile(f.historyPath(), []byte(hdr), 0o644); err != nil {
				return fmt.Errorf("replicate %s: persist history tag: %w", f.name, err)
			}
		} else if hdr != stored {
			// Cannot happen (a mismatch gets 409), but if it ever does the
			// local copy must not absorb records from a foreign timeline.
			if err := f.resetLocal(jnl); err != nil {
				return err
			}
			return fmt.Errorf("replicate %s: history drifted %s -> %s mid-handshake", f.name, stored, hdr)
		}
	}

	for {
		payload, err := journal.ReadFrame(resp.Body)
		if err != nil {
			if err == io.EOF && ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("replicate %s: %w", f.name, err)
		}
		watchdog.Reset(stall)
		if payload == nil {
			f.sendAck(ctx) // heartbeat: ack as standby liveness
			continue
		}
		if err := failpoint.Inject("cluster/ha/replicate/recv"); err != nil {
			return fmt.Errorf("replicate %s: %w", f.name, err)
		}
		if err := jnl.Append(payload); err != nil {
			return fmt.Errorf("replicate %s: local append: %w", f.name, err)
		}
		f.mu.Lock()
		f.count++
		n := f.count
		f.mu.Unlock()
		if n%16 == 0 {
			f.sendAck(ctx)
		}
	}
}

// sendAck posts the follower's durable count to the primary,
// best-effort — lag accounting, not correctness.
func (f *follower) sendAck(ctx context.Context) {
	body, err := json.Marshal(AckRequest{Stream: f.name, Count: f.offset()})
	if err != nil {
		return
	}
	actx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		f.peer+"/ha/v1/replicate/ack", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := f.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

var errNotPrimary = errors.New("cluster: not the primary")
