package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"superpose/internal/atpg"
	"superpose/internal/bench"
	"superpose/internal/core"
	"superpose/internal/failpoint"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/retry"
	"superpose/internal/scan"
	"superpose/internal/tester"
	"superpose/internal/trojan"
	"superpose/internal/trust"
)

// workerLoop consumes the queue until it is closed and drained. One
// goroutine per configured worker; each job runs under its own context
// (derived from the server's base context at submission time) so
// DELETE /v1/jobs/{id} aborts exactly that job mid-flow.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for j := range s.queue.Jobs() {
		s.counters.queueDepth.Store(int64(s.queue.Depth()))
		s.tenantAdd(j.Spec.Tenant, -1)
		if j.ctx.Err() != nil {
			// Cancelled while queued; Cancel already finished the job.
			j.finish(StateCancelled, j.ctx.Err())
			s.journalFinish(j)
			s.counters.jobsCancelled.Add(1)
			continue
		}
		// Journal the attempt before the job becomes visible as running:
		// a crash after any client has seen "running" must still find
		// the start record on recovery.
		s.journalStart(j, j.Attempts()+1)
		if !j.start() {
			s.journalFinish(j)
			s.counters.jobsCancelled.Add(1)
			continue
		}
		s.runJob(j)
	}
}

// errJobPanic wraps a panic recovered from a job run. Classified
// transient: a panicking worker must neither crash the pool nor doom a
// job that a clean re-run would complete (the flow itself is
// deterministic, but injected chaos and tester faults are not).
var errJobPanic = errors.New("service: job panicked")

// runJob drives one job to a terminal state: attempt, classify, retry
// transient failures with decorrelated-jitter backoff while attempts
// and the server-wide retry budget last, then finish and settle the
// books (counters, breaker, journal).
func (s *Server) runJob(j *Job) {
	run := s.runHook
	if run == nil {
		run = s.opts.Runner
	}
	if run == nil {
		run = s.execute
	}

	// The per-job deadline spans all attempts: TimeoutSec is a promise
	// about wall-clock time, not per-try patience.
	ctx := j.ctx
	if j.Spec.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutSec*float64(time.Second)))
		defer cancel()
	}

	backoff := retry.Policy{
		MaxAttempts: s.opts.MaxAttempts,
		BaseDelay:   s.opts.RetryBase,
		MaxDelay:    s.opts.RetryMax,
		Seed:        jobSeed(j.ID),
	}.Backoff()

	var err error
	for {
		attempt := j.nextAttempt() // journaled before the attempt began
		err = s.runSafe(ctx, run, j)
		if err == nil || ctx.Err() != nil || !transientErr(err) {
			break
		}
		if attempt >= s.opts.MaxAttempts {
			err = fmt.Errorf("service: %d attempts exhausted: %w", attempt, err)
			break
		}
		if !s.retryBudget.Withdraw() {
			err = fmt.Errorf("service: retry budget exhausted: %w", err)
			break
		}
		s.counters.jobsRetried.Add(1)
		j.publishRetry(attempt, err)
		if retry.Sleep(ctx, backoff.Next()) != nil {
			break // cancelled or deadlined during backoff; classify below
		}
		s.journalStart(j, attempt+1)
	}

	br := s.breaker(j.Spec.Tester)
	switch {
	case err == nil:
		j.finish(StateDone, nil)
		s.counters.jobsCompleted.Add(1)
		s.retryBudget.Deposit()
		br.Success()
	case errors.Is(err, context.DeadlineExceeded) && j.ctx.Err() == nil:
		// The job's own TimeoutSec expired (the submission-scoped context
		// is still live) — reported distinctly from cancellation.
		j.finish(StateDeadline, fmt.Errorf("service: timeout_sec=%gs exceeded: %w", j.Spec.TimeoutSec, err))
		s.counters.jobsDeadline.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCancelled, err)
		s.counters.jobsCancelled.Add(1)
	default:
		j.finish(StateFailed, err)
		s.counters.jobsFailed.Add(1)
		br.Failure()
	}
	s.journalFinish(j)
}

// runSafe is one attempt with panic containment; the "service/worker/
// run" failpoint injects chaos between dequeue and execution.
func (s *Server) runSafe(ctx context.Context, run func(context.Context, *Job) error, j *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errJobPanic, r)
		}
	}()
	if err := failpoint.Inject("service/worker/run"); err != nil {
		return err
	}
	return run(ctx, j)
}

// transientErr classifies a failed attempt: true means a clean re-run
// has a real chance (tester instability, injected chaos, a recovered
// panic anywhere in the fan-out); false means the failure is
// deterministic and retrying would just repeat it.
func transientErr(err error) bool {
	if errors.Is(err, core.ErrUnstable) || errors.Is(err, failpoint.ErrInjected) || errors.Is(err, errJobPanic) {
		return true
	}
	var pe *parallel.PanicError
	return errors.As(err, &pe)
}

// jobSeed derives the backoff jitter seed from the job ID: stable per
// job (deterministic tests) and distinct across jobs (no retry
// synchronization between concurrent workers).
func jobSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// execute runs one certification job end to end: materialize the design
// (cache), resolve the ATPG seed set (cache), then drive the core flow
// under the job's context with progress forwarded to subscribers.
func (s *Server) execute(ctx context.Context, j *Job) error {
	spec := j.Spec
	inst, hit, err := s.materialize(spec)
	if err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	j.SetCacheHit(hit)

	cfg, faultCfg, workers, err := s.buildConfig(j, inst)
	if err != nil {
		return err
	}
	cfg.Progress = j.PublishProgress

	lib := power.SAED90Like()
	switch spec.Kind {
	case KindLot:
		lr, err := core.CertifyLotContext(ctx, inst.golden, lib, inst.physical, cfg, core.LotOptions{
			Dies:        spec.Dies,
			Variation:   power.ThreeSigmaIntra(spec.Varsigma),
			Seed:        spec.ChipSeed,
			Tester:      faultCfg,
			Acquisition: cfg.Acquisition,
			Workers:     workers,
			Progress:    j.PublishProgress,
		})
		if err != nil {
			return err
		}
		j.SetResult(nil, lr)
		return nil

	case KindDetect:
		chip := power.Manufacture(inst.physical, lib, power.ThreeSigmaIntra(spec.Varsigma), spec.ChipSeed)
		dev := core.NewDevice(chip, cfg.NumChains, cfg.Mode)
		defer dev.Close()
		if faultCfg.Enabled() {
			dev.SetFaultModel(tester.New(faultCfg))
		}
		rep, err := core.DetectContext(ctx, inst.golden, lib, dev, cfg)
		if err != nil {
			return err
		}
		j.SetResult(rep, nil)
		return nil

	default:
		return fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}

// materialize resolves the job's design through the artifact cache.
func (s *Server) materialize(spec JobSpec) (*instance, bool, error) {
	return s.cache.Instance(instanceKey(spec), func() (*instance, error) {
		if spec.Case != "" {
			parts := strings.SplitN(spec.Case, "-", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("case %q: want <bench>-<trojan>", spec.Case)
			}
			ti, err := trust.Build(trust.Case{Benchmark: parts[0], Trojan: parts[1]}, spec.Scale)
			if err != nil {
				return nil, err
			}
			if spec.Clean {
				return &instance{golden: ti.Host, physical: ti.Host}, nil
			}
			return &instance{golden: ti.Host, physical: ti.Infected, truth: ti}, nil
		}
		host, err := bench.Parse(strings.NewReader(spec.Bench), "user")
		if err != nil {
			return nil, err
		}
		if spec.Clean || spec.Infect == 0 {
			return &instance{golden: host, physical: host}, nil
		}
		ti, err := trojan.AutoInsert(host, spec.Infect)
		if err != nil {
			return nil, err
		}
		return &instance{golden: host, physical: ti.Infected, truth: ti}, nil
	})
}

// buildConfig assembles the core flow configuration for a job and
// resolves its ATPG seed set through the cache, so every die and every
// repeat submission of the same design reuses one pattern set — which
// also makes a service run bit-identical to a library run that shares
// seeds via core.WithSharedSeeds.
func (s *Server) buildConfig(j *Job, inst *instance) (core.Config, tester.Config, int, error) {
	spec := j.Spec
	workers := spec.Workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	faultCfg, err := tester.Preset(spec.Tester, spec.TesterSeed)
	if err != nil {
		return core.Config{}, tester.Config{}, 0, err
	}
	acq := core.NaiveAcquisition()
	if faultCfg.Enabled() {
		acq = core.RobustAcquisition()
	}
	cfg := core.Config{
		NumChains:   spec.Chains,
		MaxSeeds:    spec.Seeds,
		Varsigma:    spec.Varsigma,
		ATPG:        atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120, Workers: workers},
		Acquisition: acq,
	}

	ikey := instanceKey(spec)
	seeds, hit, err := s.cache.Seeds(seedsKey(ikey, cfg.NumChains, cfg.ATPG), func() ([]*scan.Pattern, error) {
		ch := scan.Configure(inst.golden, cfg.NumChains)
		gen, err := atpg.Generate(ch, cfg.ATPG)
		if err != nil {
			return nil, err
		}
		return gen.Patterns, nil
	})
	if err != nil {
		return core.Config{}, tester.Config{}, 0, fmt.Errorf("seed generation: %w", err)
	}
	j.SetCacheHit(hit)
	cfg.SeedPatterns = seeds
	return cfg, faultCfg, workers, nil
}
