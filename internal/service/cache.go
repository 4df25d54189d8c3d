package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"superpose/internal/atpg"
	"superpose/internal/failpoint"
	"superpose/internal/netlist"
	"superpose/internal/scan"
	"superpose/internal/trojan"
)

// Cache is the service's content-addressed artifact store. Jobs that
// share inputs share the expensive intermediates — a parsed/built
// netlist instance and the ATPG seed pattern set — so a repeat
// submission skips netlist construction and ATPG entirely. Keys are
// derived from content (the benchmark case name and scale, or the
// sha-256 of an inline .bench source) plus every knob that shapes the
// artifact; worker counts are deliberately excluded because the flow is
// bit-identical at any parallelism.
//
// Cached artifacts are shared across concurrent jobs and MUST be
// treated as immutable — the same contract WithSharedSeeds already
// establishes for seed patterns fanned out across a lot's dies.
//
// The cache is unbounded: the artifact universe is small (a handful of
// benchmark circuits per service lifetime), so eviction would buy
// nothing but complexity.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// errBuildPanicked marks an entry whose build panicked, so its waiters
// retry instead of returning the nil value.
var errBuildPanicked = errors.New("service: cache build panicked")

type cacheEntry struct {
	ready chan struct{} // closed once val/err are set
	val   any
	err   error
}

// NewCache returns an empty artifact cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Hits returns the number of lookups served from the cache.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of lookups that had to build the artifact.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// do returns the artifact for key, building it at most once across
// concurrent callers (duplicate-suppression a la singleflight: late
// callers block on the first builder's ready channel). hit reports
// whether the artifact already existed.
//
// A failed build is not cached and must not poison its waiters: the
// builder evicts the entry exactly once (by identity, so it can never
// evict a successor's entry) and returns its own error, while every
// waiter that observed the failure loops and retries — becoming the
// next builder or waiting on one. Each caller builds at most once, so
// with N concurrent callers the loop terminates after at most N build
// completions.
func (c *Cache) do(key string, build func() (any, error)) (val any, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			<-e.ready
			if e.err != nil {
				continue // the build we waited on failed; retry
			}
			c.hits.Add(1)
			return e.val, true, nil
		}
		e := &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		c.misses.Add(1)
		built := false
		evict := func() {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		defer func() {
			if !built {
				// build panicked: evict and release the waiters (they
				// retry) before the panic continues unwinding. The
				// sentinel error is what tells a waiter the build failed;
				// a nil err would read as a cached nil artifact.
				e.err = errBuildPanicked
				evict()
				close(e.ready)
			}
		}()
		if ferr := failpoint.Inject("service/cache/build"); ferr != nil {
			e.err = ferr
		} else {
			e.val, e.err = build()
		}
		built = true
		if e.err != nil {
			evict()
		}
		close(e.ready)
		return e.val, false, e.err
	}
}

// instance is a materialized design: the defender's golden view and the
// manufactured reality, plus ground truth when a Trojan was inserted.
type instance struct {
	golden   *netlist.Netlist
	physical *netlist.Netlist
	truth    *trojan.Instance // nil on a clean die
}

// Instance returns the materialized netlists for key.
func (c *Cache) Instance(key string, build func() (*instance, error)) (*instance, bool, error) {
	v, hit, err := c.do(key, func() (any, error) { return build() })
	if err != nil {
		return nil, false, err
	}
	return v.(*instance), hit, nil
}

// Seeds returns the ATPG seed pattern set for key.
func (c *Cache) Seeds(key string, build func() ([]*scan.Pattern, error)) ([]*scan.Pattern, bool, error) {
	v, hit, err := c.do(key, func() (any, error) { return build() })
	if err != nil {
		return nil, false, err
	}
	return v.([]*scan.Pattern), hit, nil
}

// instanceKey derives the cache key for a job's materialized design.
func instanceKey(spec JobSpec) string {
	if spec.Case != "" {
		return fmt.Sprintf("case:%s@%g|clean=%v", spec.Case, spec.Scale, spec.Clean)
	}
	sum := sha256.Sum256([]byte(spec.Bench))
	return fmt.Sprintf("bench:%s|infect=%d|clean=%v", hex.EncodeToString(sum[:]), spec.Infect, spec.Clean)
}

// seedsKey derives the cache key for a design's ATPG seed set: the
// instance key (seeds depend only on the golden netlist) plus the scan
// configuration and every ATPG knob that shapes the pattern set.
// Workers is omitted: generation is bit-identical at any count.
func seedsKey(ikey string, chains int, o atpg.Options) string {
	return fmt.Sprintf("%s|chains=%d|atpg=bt%d,r%d,mp%d,mf%d,fs%d,s%d,nd%d",
		ikey, chains, o.BacktrackLimit, o.RandomPatterns, o.MaxPatterns,
		o.MaxFaults, o.FaultSample, o.Seed, o.NDetect)
}
