package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	"superpose/internal/failpoint"
)

// The HA primary lease is a single JSON file on storage both
// coordinators can reach. It deliberately carries NO timestamps — only
// an owner, an epoch (bumped per takeover) and a nonce (bumped per
// renewal). Liveness is judged by each node against its OWN clock:
//
//   - the primary renews at TTL/3 and self-fences (stops admitting,
//     demotes) once TTL/2 passes on its clock without a successful
//     renewal;
//   - the standby steals only after watching the nonce stay unchanged
//     for a full TTL on its clock.
//
// Because both rules compare local durations and monotone counters,
// never wall-clock timestamps, arbitrary clock OFFSET between the nodes
// cannot open a dual-primary window: the fencing deadline (TTL/2) beats
// the steal deadline (TTL) as long as clock RATES are sane.
//
// ErrHALeaseLost is what Renew returns when another node took the
// lease: the caller must stop serving as primary immediately.
var ErrHALeaseLost = errors.New("cluster: ha lease lost to another coordinator")

// haLeaseState is the lease file's contents.
type haLeaseState struct {
	Owner string `json:"owner"`
	Epoch uint64 `json:"epoch"`
	Nonce uint64 `json:"nonce"`
}

// haLease is one node's handle on the shared lease file.
type haLease struct {
	path  string
	owner string
	ttl   time.Duration
	now   func() time.Time

	mu    sync.Mutex
	epoch uint64 // the epoch we acquired under (0 = not holding)
}

func openHALease(path, owner string, ttl time.Duration, now func() time.Time) *haLease {
	if now == nil {
		now = time.Now
	}
	return &haLease{path: path, owner: owner, ttl: ttl, now: now}
}

// withLock serializes read-modify-write cycles on the lease file via a
// kernel flock on a sibling .lock file. flock is atomic (no
// check-then-act window two nodes could race through) and is released
// by the kernel when the holder's process dies, so a crashed holder
// never wedges the pair and no stale-lock breaking — with its inherent
// remove/recreate races — is needed at all. The lock file itself is
// never removed; it is an empty rendezvous point.
func (l *haLease) withLock(fn func() error) error {
	f, err := os.OpenFile(l.path+".lock", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	// Non-blocking acquire with bounded retries: the critical section is
	// microseconds, so contention clears almost immediately, and a bound
	// keeps a pathological holder from wedging the caller forever.
	for tries := 0; ; tries++ {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if err == nil {
			break
		}
		if err != syscall.EWOULDBLOCK && err != syscall.EAGAIN {
			return fmt.Errorf("cluster: ha lease lock %s: %w", l.path+".lock", err)
		}
		if tries > 2000 {
			return fmt.Errorf("cluster: ha lease lock %s wedged", l.path+".lock")
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// read decodes the lease file; a missing file is a zero state.
func (l *haLease) read() (haLeaseState, error) {
	data, err := os.ReadFile(l.path)
	if os.IsNotExist(err) {
		return haLeaseState{}, nil
	}
	if err != nil {
		return haLeaseState{}, err
	}
	var st haLeaseState
	if err := json.Unmarshal(data, &st); err != nil {
		// A torn write cannot happen (rename is atomic) but a corrupt
		// file must not wedge the cluster forever: treat it as vacant.
		return haLeaseState{}, nil
	}
	return st, nil
}

// write replaces the lease file atomically (temp + rename). One shared
// temp name is safe: writers already serialize on the lock file.
func (l *haLease) write(st haLeaseState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}

// Acquire takes the lease unconditionally: the designated primary at
// boot, or a standby that has watched a full TTL of silence. The epoch
// bump fences the previous holder — its next Renew sees a foreign epoch
// and fails.
func (l *haLease) Acquire() (uint64, error) {
	if err := failpoint.Inject("cluster/ha/lease/acquire"); err != nil {
		return 0, err
	}
	var epoch uint64
	err := l.withLock(func() error {
		st, err := l.read()
		if err != nil {
			return err
		}
		st.Owner = l.owner
		st.Epoch++
		st.Nonce++
		epoch = st.Epoch
		return l.write(st)
	})
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.epoch = epoch
	l.mu.Unlock()
	return epoch, nil
}

// Renew bumps the nonce, proving liveness to the watching standby. It
// fails with ErrHALeaseLost when another node holds the lease — the
// caller self-fences.
func (l *haLease) Renew() error {
	if err := failpoint.Inject("cluster/ha/lease/renew"); err != nil {
		return err
	}
	l.mu.Lock()
	epoch := l.epoch
	l.mu.Unlock()
	if epoch == 0 {
		return ErrHALeaseLost
	}
	return l.withLock(func() error {
		st, err := l.read()
		if err != nil {
			return err
		}
		if st.Owner != l.owner || st.Epoch != epoch {
			return ErrHALeaseLost
		}
		st.Nonce++
		return l.write(st)
	})
}

// Release drops the lease if we still hold it (orderly shutdown): the
// owner is cleared so a standby can take over without waiting out the
// silence window.
func (l *haLease) Release() error {
	l.mu.Lock()
	epoch := l.epoch
	l.epoch = 0
	l.mu.Unlock()
	if epoch == 0 {
		return nil
	}
	return l.withLock(func() error {
		st, err := l.read()
		if err != nil {
			return err
		}
		if st.Owner != l.owner || st.Epoch != epoch {
			return nil // someone else already took it
		}
		st.Owner = ""
		st.Nonce++
		return l.write(st)
	})
}

// Observe reads the current lease state (the standby's watch).
func (l *haLease) Observe() (haLeaseState, error) {
	return l.read()
}

// leaseWatch is the standby's silence detector: it remembers the last
// (epoch, nonce) observed and when — on the LOCAL clock — it last
// changed. Vacant ownership counts as silence from the start.
type leaseWatch struct {
	last     haLeaseState
	lastMove time.Time
	primed   bool
}

// update folds one observation in and reports how long the lease has
// been silent on the local clock. A vacant lease (orderly release, or
// never held) reports as indefinitely silent — no takeover wait.
func (w *leaseWatch) update(st haLeaseState, now time.Time) time.Duration {
	if st.Owner == "" {
		w.primed = true
		w.last = st
		w.lastMove = now
		return 24 * time.Hour
	}
	if !w.primed || st.Epoch != w.last.Epoch || st.Nonce != w.last.Nonce {
		w.primed = true
		w.last = st
		w.lastMove = now
		return 0
	}
	return now.Sub(w.lastMove)
}
