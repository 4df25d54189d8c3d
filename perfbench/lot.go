package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"superpose/internal/core"
	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/trust"
)

const (
	lotScale    = 0.2  // Table I designs at a fifth of published size
	lotVarsigma = 0.15 // intra-die 3σ of the manufactured dies
	lotDies     = 4    // dies per lot
)

// lotDesign is one lot the library pass certifies: the defender's golden
// netlist and the manufactured reality (infected, or the host itself for
// the clean control lot).
type lotDesign struct {
	name             string
	golden, physical *netlist.Netlist
	infected         bool
}

// lotConfig is the service's flow configuration for a lot: its ATPG
// options, σ 0.15 verdicts, naive acquisition on an ideal tester.
func lotConfig() core.Config {
	return core.Config{
		NumChains:   4,
		Varsigma:    lotVarsigma,
		ATPG:        serviceATPG(),
		Acquisition: core.NaiveAcquisition(),
	}
}

// buildLotDesigns materializes the five Table I cases plus a clean lot of
// s38417-T200's host (the false-positive control).
func buildLotDesigns() ([]lotDesign, func(), error) {
	var ds []lotDesign
	for _, c := range trust.Cases() {
		ti, err := trust.Build(c, lotScale)
		if err != nil {
			return nil, nil, fmt.Errorf("build %s: %w", c, err)
		}
		ds = append(ds, lotDesign{name: c.String(), golden: ti.Host, physical: ti.Infected, infected: true})
		if c.String() == "s38417-T200" {
			ds = append(ds, lotDesign{name: c.String() + "/clean", golden: ti.Host, physical: ti.Host})
		}
	}
	return ds, func() {}, nil
}

// lotRun is one certified lot.
type lotRun struct {
	design  lotDesign
	seed    uint64
	cfg     core.Config // with the shared seed patterns
	report  *core.LotReport
	atpg    time.Duration
	certify time.Duration
}

// certifyLot runs one library request: seed ATPG, then the lot fanned out
// over every CPU.
func certifyLot(d lotDesign, seed uint64) (*lotRun, error) {
	t0 := time.Now()
	cfg, err := core.WithSharedSeeds(d.golden, lotConfig())
	if err != nil {
		return nil, fmt.Errorf("%s: seed ATPG: %w", d.name, err)
	}
	t1 := time.Now()
	lr, err := core.CertifyLot(d.golden, power.SAED90Like(), d.physical, cfg, core.LotOptions{
		Dies:        lotDies,
		Variation:   power.ThreeSigmaIntra(lotVarsigma),
		Seed:        seed,
		Acquisition: core.NaiveAcquisition(),
		Workers:     runtime.NumCPU(),
	})
	if err != nil {
		return nil, fmt.Errorf("%s: certify: %w", d.name, err)
	}
	return &lotRun{design: d, seed: seed, cfg: cfg, report: lr, atpg: t1.Sub(t0), certify: time.Since(t1)}, nil
}

// replayDie certifies one die of a lot serially, exactly as CertifyLot
// builds it, through the public Detect. A non-nil clock receives the
// stage spans.
func replayDie(r *lotRun, die int, clock *stageClock) (*core.Report, error) {
	seed := r.seed + uint64(die)*0x9E37 // CertifyLot's per-die seed
	lib := power.SAED90Like()
	chip := power.Manufacture(r.design.physical, lib, power.ThreeSigmaIntra(lotVarsigma), seed)
	dev := core.NewDevice(chip, r.cfg.NumChains, r.cfg.Mode)
	defer dev.Close()
	dev.SetAcquisition(core.NaiveAcquisition())
	cfg := r.cfg
	if clock != nil {
		cfg.Progress = func(p core.Progress) { clock.observe(p, time.Now()) }
	}
	rep, err := core.Detect(r.design.golden, lib, dev, cfg)
	if clock != nil {
		clock.end(time.Now())
	}
	return rep, err
}

// sameReport compares a replayed die's report with the lot's, as bytes.
func sameReport(a, b *core.Report) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// checkLot verifies a lot report's internal consistency: die order and
// seeds, and the flagged count.
func checkLot(res *result, r *lotRun) bool {
	lr := r.report
	ok := len(lr.Dies) == lotDies
	flagged := 0
	for i, d := range lr.Dies {
		ok = ok && d.Die == i && d.Seed == r.seed+uint64(i)*0x9E37 && d.Report != nil
		if d.Report != nil && d.Report.Detected {
			flagged++
		}
	}
	ok = ok && flagged == lr.Detected
	for _, d := range lr.Dies {
		res.verdict(r.design.infected, d.Report != nil && d.Report.Detected)
	}
	res.check(ok, "lot %s seed %d: inconsistent lot report", r.design.name, r.seed)
	return ok
}

func runLot(ctx context.Context, o opts) (*result, error) {
	designs, done, setupS, err := setUp(buildLotDesigns)
	if err != nil {
		return nil, err
	}
	defer done()
	res := newResult()
	res.Metrics["setup_s"] = setupS
	seeds := splitmix64(o.Seed)
	if o.Trace {
		return res, traceLot(ctx, res, designs, &seeds)
	}

	var (
		walls     []float64 // per lot, ATPG included
		spent     time.Duration
		dies      int
		good      int
		passes    int
		passTimes []float64
	)
	for another(spent, passes, o.Seconds) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var pass time.Duration
		var runs []*lotRun
		for _, d := range designs {
			r, err := certifyLot(d, seeds.next())
			if err != nil {
				return nil, err
			}
			w := r.atpg + r.certify
			pass += w
			walls = append(walls, w.Seconds()*1000)
			runs = append(runs, r)
		}
		spent += pass
		passes++
		passTimes = append(passTimes, pass.Seconds())

		// Outside the timed pass: check every lot, and replay one die of
		// one lot serially — the worker count must not change its bytes.
		pick := seeds.next()
		spot := runs[pick%uint64(len(runs))]
		die := int((pick >> 32) % lotDies)
		for _, r := range runs {
			ok := checkLot(res, r)
			dies += len(r.report.Dies)
			if r == spot {
				rep, err := replayDie(r, die, nil)
				if err != nil {
					return nil, err
				}
				same, err := sameReport(rep, r.report.Dies[die].Report)
				res.check(err == nil && same, "lot %s seed %d die %d: serial replay differs from the lot (err %v)",
					r.design.name, r.seed, die, err)
				ok = ok && err == nil && same
			}
			if ok {
				good++
			}
		}
	}
	m := res.Metrics
	m["wall_s"] = median(passTimes)
	m["dies_per_s"] = float64(dies) / spent.Seconds()
	m["goodput_jobs_per_s"] = float64(good) / spent.Seconds()
	m["p50_ms"] = quantile(walls, 0.5)
	m["p90_ms"] = quantile(walls, 0.9)
	m["peak_p90_ms"] = m["p90_ms"]
	return res, nil
}

// traceLot is the traced lot run: every lot certified as in the metric
// run, then each die replayed serially under stage spans and memory
// deltas. The replay's report bytes must equal the lot's — the
// determinism contract, and proof the trace saw the same work.
func traceLot(ctx context.Context, res *result, designs []lotDesign, seeds *splitmix64) error {
	tally := newCoreTally()
	var atpgTime, lotWall, serial, inTracer time.Duration
	patterns := 0
	for _, d := range designs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r, err := certifyLot(d, seeds.next())
		if err != nil {
			return err
		}
		checkLot(res, r)
		atpgTime += r.atpg
		lotWall += r.certify
		patterns += len(r.cfg.SeedPatterns)
		for i := range r.report.Dies {
			clock := newStageClock(true)
			t0 := time.Now()
			rep, err := replayDie(r, i, clock)
			if err != nil {
				return err
			}
			serial += time.Since(t0)
			inTracer += clock.spent
			tally.addClock(clock)
			tally.addReport(rep)
			same, err := sameReport(rep, r.report.Dies[i].Report)
			res.check(err == nil && same, "lot %s seed %d die %d: serial replay differs from the lot (err %v)",
				d.name, r.seed, i, err)
		}
	}
	m := res.Metrics
	tally.into(m)
	m["atpg.generate_s"] = atpgTime.Seconds() / float64(len(designs))
	m["atpg.patterns"] = float64(patterns) / float64(len(designs))
	m["parallel.efficiency"] = serial.Seconds() / (float64(runtime.NumCPU()) * lotWall.Seconds())
	m["trace.core_coverage"] = tally.total().Seconds() / serial.Seconds()
	m["trace.overhead_pct"] = 100 * inTracer.Seconds() / serial.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: lot: tracing overhead %.4fs inside the tracer over %.3fs of serial replay\n",
		inTracer.Seconds(), serial.Seconds())
	return nil
}
