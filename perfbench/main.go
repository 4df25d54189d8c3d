// Command perfbench is the certification lab's benchmark: one process per
// run, one workload per run, every end-to-end metric (or, with --trace 1,
// every per-layer metric) printed as the last line of standard output.
//
//	perfbench --workload lot|large|serve|fleet --seed N --seconds S --trace 0|1
//
// Inputs derive from --seed alone. Every output is checked; a failed check
// counts in "failed" and in ok_frac, never as a crash. Environment
// (num_cpu, GOMAXPROCS, Go version, commit) is printed on the line before
// the result. See README.md for what each workload and metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricUnits lists every metric the benchmark can print, with its unit.
// endToEnd is what a --trace 0 run prints; perLayer what --trace 1 prints.
var (
	endToEnd = []string{
		"setup_s", "dies_per_s", "wall_s", "peak_rss_mb",
		"p50_ms", "p90_ms", "peak_p90_ms", "goodput_jobs_per_s", "ok_frac",
	}
	perLayer = []string{
		"core.calibrate_s", "core.adaptive_s", "core.pairs_s", "core.confirm_s",
		"core.adaptive_alloc_mb", "core.pairs_alloc_mb",
		"core.adaptive_steps", "core.pairs_flagged", "core.strategic_mods",
		"core.acq_readings", "core.acq_raw_per_reading", "core.acq_retries", "core.acq_unstable",
		"atpg.generate_s", "atpg.patterns",
		"bench.parse_s", "bench.parse_mb_per_s", "netlist.soa_s", "netlist.csr_mb",
		"parallel.efficiency",
		"service.submit_ms", "service.queue_wait_ms", "service.run_ms", "service.fetch_ms",
		"service.cache_hit_ratio", "service.retries", "service.decode_failures",
		"cluster.dispatch_ms", "cluster.poll_lag_ms", "cluster.polls_per_job",
		"cluster.affinity_ratio", "cluster.handoffs", "cluster.steals",
		"gen.lag_p90_ms", "trace.overhead_pct", "trace.core_coverage",
		"verdict.detect_rate", "verdict.false_pos_rate",
	}
	metricUnits = map[string]string{
		"setup_s": "s", "dies_per_s": "1/s", "wall_s": "s", "peak_rss_mb": "MB",
		"p50_ms": "ms", "p90_ms": "ms", "peak_p90_ms": "ms",
		"goodput_jobs_per_s": "1/s", "ok_frac": "ratio",

		"core.calibrate_s": "s", "core.adaptive_s": "s", "core.pairs_s": "s", "core.confirm_s": "s",
		"core.adaptive_alloc_mb": "MB", "core.pairs_alloc_mb": "MB",
		"core.adaptive_steps": "count", "core.pairs_flagged": "count", "core.strategic_mods": "count",
		"core.acq_readings": "count", "core.acq_raw_per_reading": "ratio",
		"core.acq_retries": "count", "core.acq_unstable": "count",
		"atpg.generate_s": "s", "atpg.patterns": "count",
		"bench.parse_s": "s", "bench.parse_mb_per_s": "MB/s", "netlist.soa_s": "s", "netlist.csr_mb": "MB",
		"parallel.efficiency": "ratio",
		"service.submit_ms":   "ms", "service.queue_wait_ms": "ms", "service.run_ms": "ms",
		"service.fetch_ms": "ms", "service.cache_hit_ratio": "ratio", "service.retries": "count",
		"service.decode_failures": "count",
		"cluster.dispatch_ms":     "ms", "cluster.poll_lag_ms": "ms", "cluster.polls_per_job": "count",
		"cluster.affinity_ratio": "ratio", "cluster.handoffs": "count", "cluster.steals": "count",
		"gen.lag_p90_ms": "ms", "trace.overhead_pct": "%", "trace.core_coverage": "ratio",
		"verdict.detect_rate": "ratio", "verdict.false_pos_rate": "ratio",
	}
)

// opts are the command-line arguments every workload receives.
type opts struct {
	Seed    uint64
	Seconds time.Duration
	Trace   bool
}

// result is what one run reports. Correct is false when a delivered
// output disagreed with its reference; Failed counts every attempted
// operation that did not end in a verified output (wrong, undecodable,
// refused or timed out).
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Verdict tallies over the verified dies: infected dies and how many
	// were flagged, clean dies and how many were (falsely) flagged.
	infected, detected, clean, falsePos int
}

// verdict records one verified die's verdict against its ground truth.
func (r *result) verdict(infected, flagged bool) {
	switch {
	case infected:
		r.infected++
		if flagged {
			r.detected++
		}
	default:
		r.clean++
		if flagged {
			r.falsePos++
		}
	}
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]float64{}} }

// check records one output check.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// pass records an attempted operation whose output was verified.
func (r *result) pass() { r.Attempted++ }

// fail records an attempted operation that produced no output to check.
func (r *result) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
}

var workloads = map[string]func(context.Context, opts) (*result, error){
	"lot":   runLot,
	"large": runLarge,
	"serve": func(ctx context.Context, o opts) (*result, error) { return runServe(ctx, o, false) },
	"fleet": func(ctx context.Context, o opts) (*result, error) { return runServe(ctx, o, true) },
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: lot, large, serve or fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: the traced run, printing per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload lot|large|serve|fleet --seed N --seconds S --trace 0|1")
		return 2
	}
	o := opts{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, Trace: *trace == 1}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := w(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	if res.infected > 0 {
		res.Metrics["verdict.detect_rate"] = float64(res.detected) / float64(res.infected)
	}
	if res.clean > 0 {
		res.Metrics["verdict.false_pos_rate"] = float64(res.falsePos) / float64(res.clean)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: verdicts: %d/%d infected dies flagged, %d/%d clean dies flagged\n",
		*name, res.detected, res.infected, res.falsePos, res.clean)
	if res.Attempted > 0 {
		res.Metrics["ok_frac"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	}
	names := endToEnd
	if o.Trace {
		names = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	var missing []string
	for _, m := range names {
		v, ok := res.Metrics[m]
		if !ok {
			if !o.Trace {
				fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s not measured\n", *name, m)
				return 1
			}
			missing = append(missing, m)
		}
		out.Metrics[m] = map[string]any{"value": v, "unit": metricUnits[m]}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s does not exercise (printed as 0): %v\n", *name, missing)
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *name)
		return 1
	}
	env, _ := json.Marshal(map[string]any{"env": environment(), "workload": *name, "seed": *seed, "trace": *trace})
	fmt.Println(string(env))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// environment records what a result was measured on.
func environment() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

// peakRSSMB is this process's peak resident set size, from rusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupRuns is how many times a run builds its set-up; setup_s is the
// median, and only the last set-up is kept for measuring.
const setupRuns = 5

// setUp builds a workload's set-up setupRuns times and returns the last
// one with the median build time. Each earlier set-up is torn down before
// the next is built.
func setUp[T any](build func() (T, func(), error)) (T, func(), float64, error) {
	var (
		val   T
		close func()
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if close != nil {
			close()
		}
		t0 := time.Now()
		v, c, err := build()
		if err != nil {
			return val, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		val, close = v, c
	}
	return val, close, median(times), nil
}
