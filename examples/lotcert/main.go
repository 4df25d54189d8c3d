// Lotcert certifies a whole manufacturing lot: several dies of the same
// design, each with its own process-variation draw, some lots clean and
// some attacked. The per-lot detection rates estimate the method's true-
// and false-positive behaviour — the practical question a certification
// lab actually asks.
//
//	go run ./examples/lotcert [-dies 4] [-scale 0.05]
package main

import (
	"flag"
	"fmt"
	"log"

	"superpose"
)

func main() {
	dies := flag.Int("dies", 4, "dies per lot")
	scale := flag.Float64("scale", 0.05, "benchmark scale")
	flag.Parse()

	inst, err := superpose.BuildBenchmark(
		superpose.Case{Benchmark: "s35932", Trojan: "T200"}, *scale)
	if err != nil {
		log.Fatal(err)
	}
	lib := superpose.StandardCellLibrary()

	// The process is characterized at 3σ_intra = 15%; the verdict bound
	// must assume the same ς, or clean dies of a noisier process would be
	// judged against an unrealistically tight benign envelope.
	const varsigma = 0.15

	// Generate the seed patterns once; they depend only on the golden
	// netlist and are shared by every die.
	cfg, err := superpose.WithSharedSeeds(inst.Host, superpose.Config{
		NumChains: 4,
		Varsigma:  varsigma,
		ATPG:      superpose.ATPGOptions{Seed: 7, RandomPatterns: 32, MaxFaults: 60, FaultSample: 160},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design %s; %d shared seed patterns; %d dies per lot\n\n",
		inst.Host.Name, len(cfg.SeedPatterns), *dies)

	lot := superpose.LotOptions{
		Dies:      *dies,
		Variation: superpose.ThreeSigmaIntra(varsigma),
		Seed:      2024,
		// A noisy tester with 0.2% reading noise, suppressed by averaging
		// 32 readings per pattern.
		MeasurementNoise: 0.002,
		Acquisition:      superpose.AcquisitionPolicy{Repeats: 32},
	}

	attacked, err := superpose.CertifyLot(inst.Host, lib, inst.Infected, cfg, lot)
	if err != nil {
		log.Fatal(err)
	}
	clean, err := superpose.CertifyLot(inst.Host, lib, inst.Host, cfg, lot)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("attacked lot:", attacked)
	for _, d := range attacked.Dies {
		fmt.Printf("  die %d: |S-RPD| %.4f  detected=%v\n", d.Die, d.FinalMag, d.Report.Detected)
	}
	fmt.Println("clean lot:   ", clean)
	for _, d := range clean.Dies {
		fmt.Printf("  die %d: |S-RPD| %.4f  detected=%v\n", d.Die, d.FinalMag, d.Report.Detected)
	}
	fmt.Printf("\ntrue positive rate:  %.0f%%\n", 100*attacked.DetectionRate())
	fmt.Printf("false positive rate: %.0f%%\n", 100*clean.DetectionRate())
}
