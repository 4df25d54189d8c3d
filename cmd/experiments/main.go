// Experiments regenerates every table and figure of the paper's
// evaluation section (§V):
//
//	experiments -table 1              # Table I: Trojan signal isolation
//	experiments -table 1 -case s35932-T200  # one Table I row
//	experiments -table 1 -csv out.csv # machine-readable rows
//	experiments -table 2              # Table II: detection likelihood
//	experiments -table 2 -paper       # Table II from the paper's printed S-RPDs
//	experiments -table control        # clean-die false-positive controls
//	experiments -table fig1           # Figure 1: the ideal superposition pair
//	experiments -table fig2           # Figure 2: the strategic modification suite
//	experiments -table all            # everything
//
//	# tester-fault robustness table (naive vs robust acquisition); the
//	# configuration of the recorded EXPERIMENTS.md run:
//	experiments -table robust -scale 0.04 -varsigma 0.08 -chip-seed 99
//
//	# σ-sweep: detection probability vs intra-die variation, run for real
//	experiments -table sweep -case s38584-T100 -dies 5
//
// Every table fans out across -workers goroutines (default: one per CPU)
// with bit-identical output at any worker count; -workers 1 is the exact
// serial path.
//
// Absolute numbers depend on the synthetic benchmark substitution (see
// DESIGN.md §2); the shape — who wins, by what order of magnitude — is the
// reproduction target, recorded in EXPERIMENTS.md.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"superpose/internal/core"
	"superpose/internal/profile"
	"superpose/internal/report"
	"superpose/internal/trust"
)

func main() {
	var (
		table    = flag.String("table", "all", "which artifact: 1, 2, fig1, fig2, control, robust, sweep, all")
		scale    = flag.Float64("scale", 0.25, "benchmark scale (1.0 = published size)")
		varsigma = flag.Float64("varsigma", 0.15, "manufacturing intra-die 3σ")
		chipSeed = flag.Uint64("chip-seed", 0xC0FFEE, "die selection seed")
		paper    = flag.Bool("paper", false, "table 2: use the paper's printed S-RPD values")
		caseName = flag.String("case", "", "restrict Table I (or pick the sweep case), e.g. s35932-T200")
		csvPath  = flag.String("csv", "", "also write Table I rows as CSV to this file")
		dies     = flag.Int("dies", 5, "table sweep: dies per variation magnitude")
		workers  = flag.Int("workers", 0, "parallel workers (0 = one per CPU, 1 = serial); output is bit-identical at any count")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" || *memProfile != "" {
		stopProfile, err := profile.Start(*cpuProfile, *memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		// Profiles are written on the normal return path only; the error
		// exits below abandon them.
		defer func() {
			if err := stopProfile(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	nw, err := resolveWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg := core.ExperimentConfig{Scale: *scale, Varsigma: *varsigma, ChipSeed: *chipSeed, Workers: nw}

	var rows []core.TableIRow
	needTableI := *table == "1" || *table == "all" || (*table == "2" && !*paper)

	if needTableI {
		fmt.Fprintf(os.Stderr, "running Table I pipeline (scale %.2f, 3σ_intra %.0f%%)...\n",
			*scale, 100**varsigma)
		var err error
		if *caseName != "" {
			c, err := parseCase(*caseName)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
			row, err := core.RunTableICase(c, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			rows = []core.TableIRow{row}
		} else if rows, err = core.RunTableI(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *csvPath != "" {
			if err := writeCSV(*csvPath, rows); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}

	switch *table {
	case "1":
		printTableI(rows)
	case "control":
		ctrl, err := core.RunCleanControls(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		tbl := report.New("CONTROL: clean-die runs (false-positive check, not in the paper)",
			"Host", "Final |S-RPD|", "Flagged")
		for _, r := range ctrl {
			tbl.Row(r.Case, fmt.Sprintf("%.4f", r.FinalSRPD), fmt.Sprintf("%v", r.Detected))
		}
		fmt.Print(tbl)
	case "robust":
		rcfg := cfg
		// Fault-perturbed significance rankings need a wider strategic
		// net (see ExperimentConfig.MaxPairs).
		rcfg.MaxPairs = 6
		fmt.Fprintf(os.Stderr, "running robustness table (4 regimes x 2 policies)...\n")
		rrows, err := core.RunRobustnessTable(rcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		printRobustness(rrows)
	case "sweep":
		c := trust.Case{Benchmark: "s38584", Trojan: "T100"}
		if *caseName != "" {
			var err error
			if c, err = parseCase(*caseName); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
		}
		fmt.Fprintf(os.Stderr, "running sigma sweep for %s (%d dies per magnitude)...\n", c, *dies)
		srows, err := core.RunSigmaSweep(c, cfg, nil, *dies)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		printSweep(c, srows)
	case "2":
		if *paper {
			printTableII(core.PaperTableII(), "paper-printed S-RPD")
		} else {
			printTableII(core.RunTableII(rows), "measured S-RPD")
		}
	case "fig1":
		printFigure1()
	case "fig2":
		printFigure2()
	case "all":
		printTableI(rows)
		fmt.Println()
		printTableII(core.RunTableII(rows), "measured S-RPD")
		fmt.Println()
		printTableII(core.PaperTableII(), "paper-printed S-RPD")
		fmt.Println()
		printFigure1()
		fmt.Println()
		printFigure2()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown table %q\n", *table)
		os.Exit(2)
	}
}

// parseCase resolves a <bench>-<trojan> flag value.
func parseCase(s string) (trust.Case, error) {
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		return trust.Case{}, fmt.Errorf("bad case %q: want <bench>-<trojan>, e.g. s35932-T200", s)
	}
	return trust.Case{Benchmark: parts[0], Trojan: parts[1]}, nil
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

func writeCSV(path string, rows []core.TableIRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"case", "atpg_rpd", "atpg_tca", "adaptive_rpd", "adaptive_tca",
		"super_srpd", "super_tca", "strategic_srpd", "strategic_tca",
		"mag_over_atpg", "mag_over_adaptive"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Case,
			fmt.Sprintf("%g", r.ATPGRPD), fmt.Sprintf("%g", r.ATPGTCA),
			fmt.Sprintf("%g", r.AdaptiveRPD), fmt.Sprintf("%g", r.AdaptiveTCA),
			fmt.Sprintf("%g", r.SuperSRPD), fmt.Sprintf("%g", r.SuperTCA),
			fmt.Sprintf("%g", r.StrategicSRPD), fmt.Sprintf("%g", r.StrategicTCA),
			fmt.Sprintf("%g", r.MagOverATPG), fmt.Sprintf("%g", r.MagOverAdaptive),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func printTableI(rows []core.TableIRow) {
	tbl := report.New("TABLE I: Trojan Signal Isolation Achievements with Various Approaches",
		"Benchmark", "ATPG-RPD", "TCA", "Adapt-RPD", "TCA", "S-RPD", "TCA",
		"Strat-SRPD", "TCA", "xATPG", "xAdapt")
	for _, r := range rows {
		tbl.Row(r.Case,
			fmt.Sprintf("%.5f", r.ATPGRPD), fmt.Sprintf("%.4f", r.ATPGTCA),
			fmt.Sprintf("%.5f", r.AdaptiveRPD), fmt.Sprintf("%.4f", r.AdaptiveTCA),
			fmt.Sprintf("%.4f", r.SuperSRPD), fmt.Sprintf("%.3f", r.SuperTCA),
			fmt.Sprintf("%.4f", r.StrategicSRPD), fmt.Sprintf("%.3f", r.StrategicTCA),
			fmt.Sprintf("%.1fx", r.MagOverATPG), fmt.Sprintf("%.1fx", r.MagOverAdaptive))
	}
	fmt.Print(tbl)
}

func printTableII(rows []core.TableIIRow, source string) {
	headers := []string{"Benchmark", "S-RPD"}
	for _, v := range core.TableIIVarsigmas {
		headers = append(headers, fmt.Sprintf("%.0f%%", 100*v))
	}
	tbl := report.New(
		fmt.Sprintf("TABLE II: Trojan Detection Likelihood w/ Intra-Die Variation (%s)", source),
		headers...)
	for _, r := range rows {
		cells := []interface{}{r.Case, fmt.Sprintf("%.3f", r.AchievedSRPD)}
		for _, p := range r.Probabilities {
			cells = append(cells, core.FormatProbability(p))
		}
		tbl.Row(cells...)
	}
	fmt.Print(tbl)
}

func printSweep(c trust.Case, rows []core.SigmaSweepRow) {
	tbl := report.New(fmt.Sprintf("SWEEP: detection vs intra-die variation, %s (measured dies)", c),
		"3sigma_intra", "Dies", "Detected", "Unstable", "mean |S-RPD|", "min", "max", "P(detect)")
	for _, r := range rows {
		tbl.Row(fmt.Sprintf("%.0f%%", 100*r.Varsigma),
			fmt.Sprintf("%d", r.Dies), fmt.Sprintf("%d", r.Detected),
			fmt.Sprintf("%d", r.Unstable),
			fmt.Sprintf("%.4f", r.SRPD.Mean), fmt.Sprintf("%.4f", r.SRPD.Min),
			fmt.Sprintf("%.4f", r.SRPD.Max),
			core.FormatProbability(r.PDetect))
	}
	fmt.Print(tbl)
}

func printRobustness(rows []core.RobustnessRow) {
	tbl := report.New("ROBUSTNESS: tester fault regimes x acquisition policies",
		"Regime", "Policy", "TPR", "FPR", "Unstable", "mean |S-RPD|", "Acquisition (per lot-pair)")
	for _, r := range rows {
		tbl.Row(r.Regime, r.Policy,
			fmt.Sprintf("%d/%d", r.Detected, r.Infected),
			fmt.Sprintf("%d/%d", r.FalsePos, r.Clean),
			fmt.Sprintf("%d", r.Unstable),
			fmt.Sprintf("%.4f", r.MeanSRPD),
			fmt.Sprintf("%v", r.Acquisition))
	}
	fmt.Print(tbl)
}

func printFigure1() {
	demo, err := core.BuildFigure1()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Println("FIGURE 1: test pattern pair leveraging superposition to fully magnify the Trojan")
	fmt.Printf("  TPa (activates):   %s\n", demo.TPa)
	fmt.Printf("  TPb (deactivates): %s\n", demo.TPb)
	fmt.Printf("  observed power:  POa=%.3f POb=%.3f   nominal: PNa=%.3f PNb=%.3f\n",
		demo.ObservedA, demo.ObservedB, demo.NominalA, demo.NominalB)
	fmt.Printf("  unique benign activity: %d gates (perfect overlap)\n", demo.UniqueBenign)
	fmt.Printf("  superposition residual: %.3f = Trojan gates %.3f + payload-induced %.3f\n",
		demo.Residual, demo.TrojanEnergy, demo.InducedEnergy)
	fmt.Println("  -> the Trojan signal stands alone at full magnitude")
}

func printFigure2() {
	fmt.Println("FIGURE 2: suite of strategic test pattern modifications")
	fmt.Printf("  %-3s %-30s %-10s %-10s %s\n", "#", "Modification", "Original", "Updated", "Classified")
	for _, r := range core.Figure2Rows() {
		fmt.Printf("  %-3d %-30s %-10s %-10s %s\n", r.Num, r.Name, r.Original, r.Updated, r.Kind)
	}
}
