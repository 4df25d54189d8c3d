// Trojanscan runs the full superposition detection pipeline against a
// simulated IC-under-certification and prints the certification report.
//
// The device is simulated: a benchmark case (or a user netlist, optionally
// auto-infected through rare-net analysis) is manufactured with process
// variation, and the defender's flow — which sees only the golden netlist
// and scalar power readings — hunts for the Trojan.
//
// Usage:
//
//	trojanscan -case s35932-T200 -scale 0.1 -varsigma 0.15
//	trojanscan -case s38417-T100 -clean              # certify a clean die
//	trojanscan -bench my.bench -infect 4             # custom host, 4-tap Trojan
//	trojanscan -case s35932-T200 -lot 5              # whole-lot certification
//	trojanscan -case s35932-T200 -lot 5 -workers 8   # parallel lot (bit-identical output)
//	trojanscan -case s35932-T200 -mode delay         # delay-fingerprint baseline
//	trojanscan -case s35932-T200 -report             # full report document
//	trojanscan -case s35932-T200 -tester combined    # faulty tester, robust acquisition
//	trojanscan -case s35932-T200 -tester spikes -acq naive   # show the naive collapse
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"superpose/internal/atpg"
	"superpose/internal/core"
	"superpose/internal/netio"
	"superpose/internal/netlist"
	"superpose/internal/power"
	"superpose/internal/profile"
	"superpose/internal/scan"
	"superpose/internal/tester"
	"superpose/internal/timing"
	"superpose/internal/trojan"
	"superpose/internal/trust"
)

func main() {
	var (
		caseName  = flag.String("case", "", "benchmark case, e.g. s35932-T200 (see -list)")
		benchFile = flag.String("bench", "", "user .bench netlist instead of a suite case")
		infect    = flag.Int("infect", 0, "with -bench: insert an auto-placed Trojan with this many trigger taps")
		clean     = flag.Bool("clean", false, "manufacture a clean (Trojan-free) die")
		list      = flag.Bool("list", false, "list available benchmark cases")

		scale    = flag.Float64("scale", 0.1, "benchmark scale (1.0 = published size)")
		varsigma = flag.Float64("varsigma", 0.15, "intra-die variation 3σ of the die AND the verdict bound")
		chipSeed = flag.Uint64("chip-seed", 1, "die selection seed")
		chains   = flag.Int("chains", 4, "scan chains")
		seeds    = flag.Int("seeds", 3, "adaptive runs from the strongest seed patterns")
		lot      = flag.Int("lot", 0, "certify a lot of this many dies instead of a single die")
		mode     = flag.String("mode", "power", "side channel: power (superposition) or delay (fingerprint baseline)")
		report   = flag.Bool("report", false, "print the full certification report document")

		testerPreset = flag.String("tester", "clean", "tester fault model preset: "+strings.Join(tester.PresetNames(), ", "))
		testerSeed   = flag.Uint64("tester-seed", 1, "fault realization seed (with -tester)")
		acqName      = flag.String("acq", "", "measurement-acquisition policy: naive or robust (default: naive, or robust when -tester is set)")
		workersFlag  = flag.Int("workers", 0, "parallel workers for lot dies and fault simulation (0 = one per CPU, 1 = serial); results are bit-identical at any count")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" || *memProfile != "" {
		stopProfile, err := profile.Start(*cpuProfile, *memProfile)
		if err != nil {
			fail(err)
		}
		// Profiles are written on the normal return path only; fail()
		// exits the process and abandons them.
		defer func() {
			if err := stopProfile(); err != nil {
				fmt.Fprintln(os.Stderr, "trojanscan:", err)
			}
		}()
	}

	if *list {
		fmt.Println("available cases:", strings.Join(trust.Names(), ", "))
		return
	}

	golden, physical, truth, err := materialize(*caseName, *benchFile, *infect, *clean, *scale)
	if err != nil {
		fail(err)
	}

	if *mode == "delay" {
		runDelayFingerprint(golden, physical, truth, *varsigma, *chipSeed)
		return
	}
	if *mode != "power" {
		fail(fmt.Errorf("unknown -mode %q (power or delay)", *mode))
	}

	workers, err := resolveWorkers(*workersFlag)
	if err != nil {
		fail(err)
	}

	faultCfg, err := tester.Preset(*testerPreset, *testerSeed)
	if err != nil {
		fail(err)
	}
	acq, err := resolveAcquisition(*acqName, faultCfg.Enabled())
	if err != nil {
		fail(err)
	}

	lib := power.SAED90Like()
	cfg := core.Config{
		NumChains:   *chains,
		MaxSeeds:    *seeds,
		Varsigma:    *varsigma,
		ATPG:        atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120, Workers: workers},
		Acquisition: acq,
	}

	if *lot > 0 {
		err := runLot(os.Stdout, golden, lib, physical, truth, cfg, core.LotOptions{
			Dies:        *lot,
			Variation:   power.ThreeSigmaIntra(*varsigma),
			Seed:        *chipSeed,
			Tester:      faultCfg,
			Acquisition: acq,
			Workers:     workers,
		})
		if err != nil {
			fail(err)
		}
		return
	}

	chip := power.Manufacture(physical, lib, power.ThreeSigmaIntra(*varsigma), *chipSeed)
	dev := core.NewDevice(chip, *chains, scan.LOS)
	if faultCfg.Enabled() {
		dev.SetFaultModel(tester.New(faultCfg))
	}

	rep, err := core.Detect(golden, lib, dev, cfg)
	if err != nil {
		fail(err)
	}

	if *report {
		if err := core.WriteReport(os.Stdout, rep); err != nil {
			fail(err)
		}
		if truth != nil {
			fmt.Printf("\nground truth: %d Trojan gates inserted (%s)\n",
				len(truth.TrojanGates), truth.Spec.Name)
		} else {
			fmt.Println("\nground truth: die is clean")
		}
		return
	}

	fmt.Println("golden:", golden.ComputeStats())
	if rep.ATPGSummary != "" {
		fmt.Println("seeds: ", rep.ATPGSummary)
	}
	fmt.Printf("seed pattern      RPD   = %+.5f\n", rep.SeedReading.RPD)
	fmt.Printf("adaptive flow     RPD   = %+.5f  (%d steps, %d pairs flagged)\n",
		rep.AdaptiveReading.RPD, len(rep.Adaptive.Steps), len(rep.Adaptive.Pairs))
	if rep.HasPair {
		fmt.Printf("superposition     S-RPD = %+.5f  (unique %d+%d gates)\n",
			rep.Superposition.SRPD, rep.Superposition.AUniqueCount, rep.Superposition.BUniqueCount)
		fmt.Printf("strategic mods    S-RPD = %+.5f  (%d modifications)\n",
			rep.Strategic.Final.SRPD, len(rep.Strategic.Applied))
	} else {
		fmt.Println("superposition: no suspicious drop flagged")
	}
	if faultCfg.Enabled() {
		fmt.Printf("acquisition (%s tester, %s policy): %v\n", *testerPreset, acq.Aggregation, rep.Acquisition)
	}
	if rep.Detected {
		fmt.Printf("verdict: TROJAN DETECTED  (|S-RPD| %.4f > max benign %.4f at 3σ_intra=%.0f%%)\n",
			abs(rep.FinalSRPD), rep.Varsigma, 100**varsigma)
	} else {
		fmt.Printf("verdict: clean (|S-RPD| %.4f within benign bound %.4f)\n", abs(rep.FinalSRPD), rep.Varsigma)
	}
	fmt.Println("\ndetection likelihood vs intra-die variation (Eq. 3):")
	for _, v := range core.TableIIVarsigmas {
		fmt.Printf("  3σ_intra = %4.0f%%: %s\n", 100*v,
			core.FormatProbability(core.DetectionProbability(rep.FinalSRPD, v)))
	}

	if truth != nil {
		fmt.Printf("\nground truth: %d Trojan gates inserted (%s)\n",
			len(truth.TrojanGates), truth.Spec.Name)
	} else {
		fmt.Println("\nground truth: die is clean")
	}
}

// materialize resolves the flags into (golden, physical, groundTruth).
func materialize(caseName, benchFile string, infect int, clean bool, scale float64) (
	golden, physical *netlist.Netlist, truth *trojan.Instance, err error) {
	switch {
	case caseName != "" && benchFile != "":
		return nil, nil, nil, fmt.Errorf("use -case or -bench, not both")

	case caseName != "":
		parts := strings.SplitN(caseName, "-", 2)
		if len(parts) != 2 {
			return nil, nil, nil, fmt.Errorf("case %q: want <bench>-<trojan>, e.g. s35932-T200", caseName)
		}
		inst, err := trust.Build(trust.Case{Benchmark: parts[0], Trojan: parts[1]}, scale)
		if err != nil {
			return nil, nil, nil, err
		}
		if clean {
			return inst.Host, inst.Host, nil, nil
		}
		return inst.Host, inst.Infected, inst, nil

	case benchFile != "":
		host, err := netio.ReadFile(benchFile)
		if err != nil {
			return nil, nil, nil, err
		}
		if clean || infect == 0 {
			return host, host, nil, nil
		}
		inst, err := trojan.AutoInsert(host, infect)
		if err != nil {
			return nil, nil, nil, err
		}
		return host, inst.Infected, inst, nil

	default:
		return nil, nil, nil, fmt.Errorf("one of -case or -bench is required (try -list)")
	}
}

// runDelayFingerprint runs the path-delay baseline ([1]-style) instead of
// the power superposition pipeline.
func runDelayFingerprint(golden, physical *netlist.Netlist, truth *trojan.Instance,
	varsigma float64, chipSeed uint64) {
	lib := timing.SAED90LikeDelays()
	m := timing.NewModel(golden, lib)
	chip := timing.Manufacture(physical, lib, varsigma, varsigma/3, chipSeed)
	res, err := timing.Fingerprint(golden, m, chip.Measure(), varsigma)
	if err != nil {
		fail(err)
	}
	fmt.Println("golden:", golden.ComputeStats())
	fmt.Printf("delay fingerprint: max calibrated residual %.4f (threshold %.4f, scale %.4f)\n",
		res.MaxResidual, varsigma, res.Scale)
	if res.Detected {
		fmt.Println("verdict: TIMING ANOMALY DETECTED")
	} else {
		fmt.Println("verdict: clean (timing within process variation)")
	}
	if truth != nil {
		fmt.Printf("ground truth: die is attacked (%d Trojan gates)\n", len(truth.TrojanGates))
	} else {
		fmt.Println("ground truth: die is clean")
	}
}

// runLot certifies a whole lot and renders the report. The rendered text
// is bit-identical at any worker count (see internal/parallel); the CLI
// tests pin that by diffing -workers 1 against -workers 4 output.
func runLot(out io.Writer, golden *netlist.Netlist, lib *power.Library, physical *netlist.Netlist,
	truth *trojan.Instance, cfg core.Config, lot core.LotOptions) error {
	cfg, err := core.WithSharedSeeds(golden, cfg)
	if err != nil {
		return err
	}
	lr, err := core.CertifyLot(golden, lib, physical, cfg, lot)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "golden:", golden.ComputeStats())
	fmt.Fprintln(out, lr)
	for _, d := range lr.Dies {
		fmt.Fprintf(out, "  die %d (seed %d): |S-RPD| %.4f  detected=%v\n",
			d.Die, d.Seed, d.FinalMag, d.Report.Detected)
	}
	if truth != nil {
		fmt.Fprintf(out, "ground truth: lot is attacked (%d Trojan gates)\n", len(truth.TrojanGates))
	} else {
		fmt.Fprintln(out, "ground truth: lot is clean")
	}
	return nil
}

// resolveWorkers validates the -workers flag: 0 means one worker per CPU,
// positive counts are taken as-is, negative counts are rejected.
func resolveWorkers(w int) (int, error) {
	if w < 0 {
		return 0, fmt.Errorf("-workers must be >= 0, got %d", w)
	}
	if w == 0 {
		return runtime.NumCPU(), nil
	}
	return w, nil
}

// resolveAcquisition maps the -acq flag to a policy. With no explicit
// choice the policy follows the tester: robust under a fault model,
// naive on an ideal tester.
func resolveAcquisition(name string, faulty bool) (core.AcquisitionPolicy, error) {
	switch name {
	case "naive":
		return core.NaiveAcquisition(), nil
	case "robust":
		return core.RobustAcquisition(), nil
	case "":
		if faulty {
			return core.RobustAcquisition(), nil
		}
		return core.NaiveAcquisition(), nil
	default:
		return core.AcquisitionPolicy{}, fmt.Errorf("unknown -acq %q (naive or robust)", name)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "trojanscan:", err)
	os.Exit(1)
}
