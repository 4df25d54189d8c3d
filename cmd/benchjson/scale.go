package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"superpose/internal/bench"
	"superpose/internal/core"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// scalePoint is one row of the capacity-tier scale curve. The timings
// come from the child process; the peak RSS comes from the parent's
// wait4 rusage of that child, so it covers the entire pipeline
// (generation, streaming parse, CSR compile, certification) with no
// in-process sampling error.
type scalePoint struct {
	Gates     int  `json:"gates"`
	Certified bool `json:"certified"`
	// BenchBytes is the size of the emitted .bench text.
	BenchBytes int64 `json:"bench_bytes"`
	// EmitSeconds: streaming generation straight to disk (O(levels) scratch).
	EmitSeconds float64 `json:"emit_seconds"`
	// ParseSeconds: streaming parse + arena build + levelization.
	ParseSeconds float64 `json:"parse_seconds"`
	// SoASeconds: the CSR structure-of-arrays compile.
	SoASeconds float64 `json:"soa_seconds"`
	// CertifySeconds: the bounded detect flow (2 random seeds, 1 adaptive
	// step, 1 strategic round) on the PPSFP engine. Zero when not certified.
	CertifySeconds float64 `json:"certify_seconds,omitempty"`
	// CSRBytes is the raw footprint of the SoA/CSR arrays — the yardstick
	// the peak-RSS acceptance bound is measured against.
	CSRBytes int64 `json:"csr_bytes"`
	// PeakRSSBytes is the child's ru_maxrss (whole-pipeline peak).
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	FinalSRPD    float64 `json:"final_srpd,omitempty"`
}

type scaleDocument struct {
	Date   string       `json:"date"`
	GoOS   string       `json:"goos"`
	GoArch string       `json:"goarch"`
	NumCPU int          `json:"num_cpu"`
	Points []scalePoint `json:"points"`
}

// runScale drives the scale curve: one child process per point (so each
// point's peak RSS is isolated), certification up to certifyMax gates,
// parse-and-levelize only above it.
func runScale(maxGates, certifyMax int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := scaleDocument{
		Date:   time.Now().UTC().Format(time.RFC3339),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	for _, gates := range []int{10_000, 100_000, 1_000_000, 10_000_000} {
		if gates > maxGates {
			continue
		}
		certify := gates <= certifyMax
		args := []string{"-scale-child", "-gates", strconv.Itoa(gates)}
		if certify {
			args = append(args, "-certify")
		}
		cmd := exec.Command(exe, args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("scale point %d: %w", gates, err)
		}
		var pt scalePoint
		if err := json.Unmarshal(out.Bytes(), &pt); err != nil {
			return fmt.Errorf("scale point %d: bad child output: %w", gates, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			// Linux reports ru_maxrss in KiB.
			pt.PeakRSSBytes = ru.Maxrss * 1024
		}
		doc.Points = append(doc.Points, pt)
		fmt.Fprintf(os.Stderr,
			"scale: %8d gates: emit %6.2fs  parse %6.2fs  soa %5.2fs  certify %7.2fs  peak RSS %5d MiB\n",
			pt.Gates, pt.EmitSeconds, pt.ParseSeconds, pt.SoASeconds,
			pt.CertifySeconds, pt.PeakRSSBytes>>20)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runScaleChild is one measured point, executed in its own process.
// Timings go to stdout as JSON; the parent stamps in this process's
// peak RSS from its exit rusage.
func runScaleChild(gates int, certify bool) error {
	p := trust.SizedLargeParams(gates, 1)
	f, err := os.CreateTemp("", "scale-*.bench")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()

	t0 := time.Now()
	if err := trust.EmitLarge(f, p); err != nil {
		return err
	}
	pt := scalePoint{Gates: p.TotalGates(), Certified: certify}
	pt.EmitSeconds = time.Since(t0).Seconds()
	if st, err := f.Stat(); err == nil {
		pt.BenchBytes = st.Size()
	}

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	t0 = time.Now()
	n, err := bench.ParseStreamSized(f, p.Name, p.TotalGates())
	if err != nil {
		return err
	}
	pt.ParseSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	soa := n.SoA()
	pt.SoASeconds = time.Since(t0).Seconds()
	pt.CSRBytes = 4*int64(len(soa.Orig)+len(soa.Compact)+len(soa.FaninPtr)+
		len(soa.Fanin)+len(soa.FanoutPtr)+len(soa.Fanout)+len(soa.Level)) +
		int64(len(soa.Typ))

	if certify {
		lib := power.SAED90Like()
		chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.15), 42)
		dev := core.NewDevice(chip, 4, scan.LOS)
		defer dev.Close()
		rng := stats.NewRNG(7)
		ch := scan.Configure(n, 4)
		cfg := core.Config{
			// The fast knobs: random seeds instead of ATPG, one adaptive
			// step, one strategic round — this measures the per-gate cost
			// of the measurement pipeline, not search depth.
			SeedPatterns: []*scan.Pattern{ch.RandomPattern(rng), ch.RandomPattern(rng)},
			MaxSeeds:     1,
			MaxPairs:     1,
			Adaptive:     core.AdaptiveOptions{MaxSteps: 1},
			Strategic:    core.StrategicOptions{MaxRounds: 1},
			Acquisition:  core.NaiveAcquisition(),
		}
		t0 = time.Now()
		rep, err := core.Detect(n, lib, dev, cfg)
		if err != nil {
			return err
		}
		pt.CertifySeconds = time.Since(t0).Seconds()
		pt.FinalSRPD = rep.FinalSRPD
	}
	return json.NewEncoder(os.Stdout).Encode(pt)
}
