package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"superpose/internal/bench"
	"superpose/internal/core"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/sim"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// largeGates is the capacity point: the 10⁵-gate row of BENCH_scale.json.
const largeGates = 100000

// largeFinalSRPD is that row's verdict signal; the bounded flow on the
// seed-1 synthetic design must reproduce it bit for bit.
const largeFinalSRPD = 0.052276447937536524

// largeUnit is one timed capacity certify: streaming parse of the .bench
// bytes, the SoA compile, and the bounded Detect.
type largeUnit struct {
	wall, parse, soa, certify time.Duration
	csrBytes                  int64
	rep                       *core.Report
	clock                     *stageClock
}

// runLarge measures the capacity point. Its inputs do not depend on the
// seed: the expected final_srpd pins one design, die and seed pair.
func runLarge(ctx context.Context, o opts) (*result, error) {
	src, done, setupS, err := setUp(func() ([]byte, func(), error) {
		var buf bytes.Buffer
		if err := trust.EmitLarge(&buf, trust.SizedLargeParams(largeGates, 1)); err != nil {
			return nil, nil, err
		}
		return buf.Bytes(), func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer done()
	res := newResult()
	res.Metrics["setup_s"] = setupS

	if o.Trace {
		plain, err := largeCertify(src, false)
		if err != nil {
			return nil, err
		}
		traced, err := largeCertify(src, true)
		if err != nil {
			return nil, err
		}
		for _, u := range []*largeUnit{plain, traced} {
			largeCheck(res, u)
		}
		m := res.Metrics
		m["bench.parse_s"] = traced.parse.Seconds()
		m["bench.parse_mb_per_s"] = float64(len(src)) / (1 << 20) / traced.parse.Seconds()
		m["netlist.soa_s"] = traced.soa.Seconds()
		m["netlist.csr_mb"] = float64(traced.csrBytes) / (1 << 20)
		t := newCoreTally()
		t.addClock(traced.clock)
		t.addReport(traced.rep)
		t.into(m)
		cov := t.total().Seconds() / traced.certify.Seconds()
		m["trace.core_coverage"] = cov
		res.check(cov >= 0.95, "large: core stage spans cover %.3f of the certify, want ≥ 0.95", cov)
		m["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: large: tracing overhead %+.3fs (traced %.3fs, untraced %.3fs)\n",
			(traced.wall - plain.wall).Seconds(), traced.wall.Seconds(), plain.wall.Seconds())
		return res, nil
	}

	var walls []float64
	var spent time.Duration
	good := 0
	for another(spent, len(walls), o.Seconds) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		u, err := largeCertify(src, false)
		if err != nil {
			return nil, err
		}
		if largeCheck(res, u) {
			good++
		}
		walls = append(walls, u.wall.Seconds())
		spent += u.wall
	}
	m := res.Metrics
	m["wall_s"] = median(walls)
	m["dies_per_s"] = float64(len(walls)) / spent.Seconds()
	m["goodput_jobs_per_s"] = float64(good) / spent.Seconds()
	ms := make([]float64, len(walls))
	for i, w := range walls {
		ms[i] = w * 1000
	}
	m["p50_ms"] = quantile(ms, 0.5)
	m["p90_ms"] = quantile(ms, 0.9)
	m["peak_p90_ms"] = m["p90_ms"]
	return res, nil
}

// largeCheck verifies a capacity certify: the pinned verdict signal, and
// a clean verdict (the synthetic design carries no Trojan).
func largeCheck(res *result, u *largeUnit) bool {
	ok := u.rep.FinalSRPD == largeFinalSRPD && !u.rep.Detected
	res.verdict(false, u.rep.Detected)
	res.check(ok, "large: final_srpd %v detected %v, want %v and not detected",
		u.rep.FinalSRPD, u.rep.Detected, largeFinalSRPD)
	return ok
}

// largeCertify runs one capacity unit. Traced, it times the parse and SoA
// stages and splits the certify into stage spans with allocation deltas.
func largeCertify(src []byte, traced bool) (*largeUnit, error) {
	p := trust.SizedLargeParams(largeGates, 1)
	u := &largeUnit{}
	// Collect the previous unit's netlist first, so peak RSS is one
	// certify's, not however many happened to fit in the run.
	runtime.GC()
	t0 := time.Now()
	n, err := bench.ParseStreamSized(bytes.NewReader(src), p.Name, p.TotalGates())
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	t1 := time.Now()
	soa := n.SoA()
	t2 := time.Now()
	u.parse, u.soa = t1.Sub(t0), t2.Sub(t1)
	u.csrBytes = csrBytes(soa)

	// The bounded flow of BENCH_scale: random seeds instead of ATPG, one
	// adaptive step, one strategic round, naive acquisition.
	lib := power.SAED90Like()
	chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.15), 42)
	dev := core.NewDevice(chip, 4, scan.LOS)
	defer dev.Close()
	rng := stats.NewRNG(7)
	ch := scan.Configure(n, 4)
	cfg := core.Config{
		SeedPatterns: []*scan.Pattern{ch.RandomPattern(rng), ch.RandomPattern(rng)},
		MaxSeeds:     1,
		MaxPairs:     1,
		Adaptive:     core.AdaptiveOptions{MaxSteps: 1, Engine: sim.EnginePPSFP},
		Strategic:    core.StrategicOptions{MaxRounds: 1},
		Acquisition:  core.NaiveAcquisition(),
	}
	if traced {
		u.clock = newStageClock(true)
		cfg.Progress = func(p core.Progress) { u.clock.observe(p, time.Now()) }
	}
	t3 := time.Now()
	rep, err := core.Detect(n, lib, dev, cfg)
	if err != nil {
		return nil, fmt.Errorf("certify: %w", err)
	}
	t4 := time.Now()
	if traced {
		u.clock.end(t4)
	}
	u.certify, u.wall, u.rep = t4.Sub(t3), t4.Sub(t0), rep
	return u, nil
}
