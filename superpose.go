// Package superpose is a power side-channel hardware Trojan detection
// toolkit built around test pattern superposition, reproducing
// C. Nigh and A. Orailoglu, "Test Pattern Superposition to Detect Hardware
// Trojans", DATE 2020.
//
// The library spans the full flow a certification lab would run:
//
//   - gate-level netlists (ISCAS .bench format) with full-scan DFT,
//   - Launch-on-Shift transition-delay ATPG for seed patterns,
//   - a power model with inter-/intra-die process variation,
//   - the self-referencing detection pipeline: per-die calibration, the
//     adaptive transition flow, superposition (S-RPD) pair analysis and
//     the strategic modification suite,
//   - the Trust-Hub-style benchmark suite and the Table I / Table II
//     experiment harness.
//
// Quick start:
//
//	inst, _ := superpose.BuildBenchmark(superpose.Case{Benchmark: "s38417", Trojan: "T100"}, 0.05)
//	lib := superpose.StandardCellLibrary()
//	chip := superpose.Manufacture(inst.Infected, lib, superpose.ThreeSigmaIntra(0.15), 1)
//	dev := superpose.NewDevice(chip, 4, superpose.LOS)
//	report, _ := superpose.Detect(inst.Host, lib, dev, superpose.Config{})
//	fmt.Println(report.Summary())
package superpose

import (
	"context"
	"io"

	"superpose/internal/atpg"
	"superpose/internal/bench"
	"superpose/internal/core"
	"superpose/internal/netio"
	"superpose/internal/netlist"
	"superpose/internal/parallel"
	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stil"
	"superpose/internal/tester"
	"superpose/internal/trojan"
	"superpose/internal/trust"
	"superpose/internal/verilog"
)

// Netlist and construction.
type (
	// Netlist is a frozen gate-level circuit.
	Netlist = netlist.Netlist
	// NetlistBuilder constructs netlists incrementally.
	NetlistBuilder = netlist.Builder
	// GateType enumerates cell types.
	GateType = netlist.GateType
)

// NewNetlistBuilder returns a builder for a netlist with the given name.
func NewNetlistBuilder(name string) *NetlistBuilder { return netlist.NewBuilder(name) }

// ParseBench reads an ISCAS .bench netlist.
func ParseBench(r io.Reader, name string) (*Netlist, error) { return bench.Parse(r, name) }

// WriteBench serializes a netlist in .bench format.
func WriteBench(w io.Writer, n *Netlist) error { return bench.Write(w, n) }

// ParseVerilog reads a gate-level structural Verilog module (the
// Trust-Hub distribution format).
func ParseVerilog(r io.Reader, name string) (*Netlist, error) { return verilog.Parse(r, name) }

// WriteVerilog serializes a netlist as a structural Verilog module.
func WriteVerilog(w io.Writer, n *Netlist) error { return verilog.Write(w, n) }

// Scan infrastructure.
type (
	// Chains is a scan-chain configuration.
	Chains = scan.Chains
	// Pattern is one LOS/LOC test pattern.
	Pattern = scan.Pattern
	// Mode selects LOS or LOC application.
	Mode = scan.Mode
)

// Pattern application modes.
const (
	LOS = scan.LOS
	LOC = scan.LOC
)

// ConfigureScan partitions a netlist's flip-flops into numChains chains.
func ConfigureScan(n *Netlist, numChains int) *Chains { return scan.Configure(n, numChains) }

// Power and process variation.
type (
	// CellLibrary holds per-cell switching energies.
	CellLibrary = power.Library
	// Chip is a manufactured die with fixed process variation.
	Chip = power.Chip
	// Variation parameterizes process noise.
	Variation = power.Variation
)

// StandardCellLibrary returns the SAED-90nm-like cell energy library.
func StandardCellLibrary() *CellLibrary { return power.SAED90Like() }

// AltCellLibrary returns the Nangate-45nm-like alternative energy library
// (the cross-library robustness ablation of EXPERIMENTS.md).
func AltCellLibrary() *CellLibrary { return power.Nangate45Like() }

// ThreeSigmaIntra builds a Variation from the paper's 3σ_intra convention.
func ThreeSigmaIntra(varsigma float64) Variation { return power.ThreeSigmaIntra(varsigma) }

// Manufacture creates one die of the physical netlist.
func Manufacture(physical *Netlist, lib *CellLibrary, v Variation, seed uint64) *Chip {
	return power.Manufacture(physical, lib, v, seed)
}

// Trojans and benchmarks.
type (
	// TrojanSpec describes a trigger/payload Trojan.
	TrojanSpec = trojan.Spec
	// TrojanInstance is an inserted Trojan with ground truth.
	TrojanInstance = trojan.Instance
	// RareNet is a trigger-tap candidate.
	RareNet = trojan.RareNet
	// Case names a benchmark-Trojan pair.
	Case = trust.Case
	// BenchmarkParams sizes a synthetic host circuit.
	BenchmarkParams = trust.Params
)

// InsertTrojan builds the infected netlist for a spec.
func InsertTrojan(host *Netlist, spec TrojanSpec) (*TrojanInstance, error) {
	return trojan.Insert(host, spec)
}

// FindRareNets runs the rare-net trigger analysis.
func FindRareNets(n *Netlist, numPatterns int, seed uint64, maxProb float64) []RareNet {
	return trojan.FindRareNets(n, numPatterns, seed, maxProb)
}

// TapAncestors marks the combinational fan-in cone of the named tap nets;
// a payload victim inside the cone would create a combinational loop.
func TapAncestors(n *Netlist, taps []string) ([]bool, error) {
	return trojan.TapAncestors(n, taps)
}

// GenerateBenchmarkHost builds a synthetic full-scan circuit.
func GenerateBenchmarkHost(p BenchmarkParams) (*Netlist, error) { return trust.Generate(p) }

// BuildBenchmark materializes one Trust-Hub-style evaluation case.
func BuildBenchmark(c Case, scale float64) (*TrojanInstance, error) { return trust.Build(c, scale) }

// BenchmarkCases lists the five Table I cases.
func BenchmarkCases() []Case { return trust.Cases() }

// ATPG.
type (
	// ATPGOptions tunes LOS TDF test generation.
	ATPGOptions = atpg.Options
	// ATPGResult reports a generation run.
	ATPGResult = atpg.Result
)

// GenerateTests runs the LOS transition-delay ATPG.
func GenerateTests(ch *Chains, opt ATPGOptions) (*ATPGResult, error) { return atpg.Generate(ch, opt) }

// CompactTests drops patterns whose fault detections are subsumed by the
// rest of the set (reverse-order static compaction).
func CompactTests(ch *Chains, patterns []*Pattern) []*Pattern {
	return atpg.Compact(ch, patterns)
}

// Fault diagnosis.
type (
	// Fault is a transition-delay fault.
	Fault = atpg.Fault
	// FaultDictionary maps faults to detecting patterns for diagnosis.
	FaultDictionary = atpg.Dictionary
	// DiagnosisCandidate is one ranked diagnosis hypothesis.
	DiagnosisCandidate = atpg.Candidate
)

// TransitionFaults builds the collapsed transition fault list of a netlist.
func TransitionFaults(n *Netlist) []Fault {
	reps, _ := atpg.Collapse(n, atpg.FaultList(n))
	return reps
}

// BuildFaultDictionary fault-simulates every (fault, pattern) pair.
func BuildFaultDictionary(ch *Chains, faults []Fault, patterns []*Pattern) *FaultDictionary {
	return atpg.BuildDictionary(ch, faults, patterns)
}

// Detection pipeline.
type (
	// Device is the IC-under-certification on the tester.
	Device = core.Device
	// Evaluator is the defender's measurement workbench.
	Evaluator = core.Evaluator
	// Config drives the Detect pipeline.
	Config = core.Config
	// Report is a certification outcome.
	Report = core.Report
	// PairAnalysis is a superposition view of a pattern pair.
	PairAnalysis = core.PairAnalysis
	// AdaptiveOptions tunes the adaptive flow.
	AdaptiveOptions = core.AdaptiveOptions
	// StrategicOptions tunes the strategic modification search.
	StrategicOptions = core.StrategicOptions
)

// NewDevice mounts a manufactured chip for measurement.
func NewDevice(chip *Chip, numChains int, mode Mode) *Device {
	return core.NewDevice(chip, numChains, mode)
}

// NewEvaluator assembles the defender's workbench.
func NewEvaluator(golden *Netlist, lib *CellLibrary, dev *Device, numChains int, mode Mode) *Evaluator {
	return core.NewEvaluator(golden, lib, dev, numChains, mode)
}

// Detect runs the full superposition detection pipeline on one device.
func Detect(golden *Netlist, lib *CellLibrary, dev *Device, cfg Config) (*Report, error) {
	return core.Detect(golden, lib, dev, cfg)
}

// DetectContext is Detect under a cancellation context: the pipeline
// checks ctx at every phase boundary and inside the adaptive climb, and
// a cancelled run returns ctx's error with no report.
func DetectContext(ctx context.Context, golden *Netlist, lib *CellLibrary, dev *Device, cfg Config) (*Report, error) {
	return core.DetectContext(ctx, golden, lib, dev, cfg)
}

// Progress reporting. Long entry points (Detect, CertifyLot and the
// experiment runners) accept a ProgressFunc via Config.Progress /
// LotOptions.Progress and call it at each phase boundary — the
// certification service forwards these to its SSE event streams.
type (
	// Progress is one pipeline progress event.
	Progress = core.Progress
	// ProgressFunc receives progress events; it must be cheap and is
	// called from the goroutine running the pipeline (lot certification
	// calls it from concurrent per-die workers).
	ProgressFunc = core.ProgressFunc
	// Stage names a pipeline phase in a Progress event.
	Stage = core.Stage
)

// Pipeline stages, in flow order.
const (
	StageSeeds     = core.StageSeeds
	StageCalibrate = core.StageCalibrate
	StageAdaptive  = core.StageAdaptive
	StagePairs     = core.StagePairs
	StageConfirm   = core.StageConfirm
	StageDie       = core.StageDie
)

// Lot certification.
type (
	// LotOptions describes a manufacturing lot to certify.
	LotOptions = core.LotOptions
	// LotReport aggregates per-die certification outcomes.
	LotReport = core.LotReport
)

// Tester fault model and measurement acquisition.
type (
	// TesterConfig parameterizes the realistic tester fault model.
	TesterConfig = tester.Config
	// FaultModel is a seeded stream of measurement faults.
	FaultModel = tester.FaultModel
	// AcquisitionPolicy drives the robust measurement-acquisition layer.
	AcquisitionPolicy = core.AcquisitionPolicy
	// AcquisitionStats counts the acquisition layer's work.
	AcquisitionStats = core.AcquisitionStats
	// Aggregation selects how repeated samples collapse into a reading.
	Aggregation = core.Aggregation
)

// Sample aggregation strategies.
const (
	AggMean   = core.AggMean
	AggMedian = core.AggMedian
)

// NewFaultModel builds a seeded, bit-reproducible tester fault model.
func NewFaultModel(cfg TesterConfig) *FaultModel { return tester.New(cfg) }

// TesterPreset returns a named fault-model configuration (see
// TesterPresetNames) with the given realization seed.
func TesterPreset(name string, seed uint64) (TesterConfig, error) { return tester.Preset(name, seed) }

// TesterPresetNames lists the available fault-model presets.
func TesterPresetNames() []string { return tester.PresetNames() }

// NaiveAcquisition is the single-shot, trust-everything policy.
func NaiveAcquisition() AcquisitionPolicy { return core.NaiveAcquisition() }

// RobustAcquisition is the repeat/reject/retry policy that restores
// clean-tester verdicts under the fault model.
func RobustAcquisition() AcquisitionPolicy { return core.RobustAcquisition() }

// CertifyLot manufactures and certifies a lot of dies of the physical
// netlist against the golden reference.
func CertifyLot(golden *Netlist, lib *CellLibrary, physical *Netlist, cfg Config, lot LotOptions) (*LotReport, error) {
	return core.CertifyLot(golden, lib, physical, cfg, lot)
}

// CertifyLotContext is CertifyLot under a cancellation context: a
// cancelled lot stops dispatching dies, drains in-flight ones, and
// returns ctx's error with no report.
func CertifyLotContext(ctx context.Context, golden *Netlist, lib *CellLibrary, physical *Netlist, cfg Config, lot LotOptions) (*LotReport, error) {
	return core.CertifyLotContext(ctx, golden, lib, physical, cfg, lot)
}

// WithSharedSeeds generates ATPG seed patterns once for reuse across a
// lot's dies.
func WithSharedSeeds(golden *Netlist, cfg Config) (Config, error) {
	return core.WithSharedSeeds(golden, cfg)
}

// Parallel execution. CertifyLot, the experiment tables and the ATPG
// fault simulation fan out across a bounded worker pool
// (LotOptions.Workers / ExperimentConfig.Workers / ATPGOptions.Workers):
// 0 means one worker per CPU, 1 the exact legacy serial path, and every
// count produces bit-identical results — per-item seeds derive from the
// item index alone, never from scheduling order.

// DefaultWorkers is the worker count a Workers value of 0 resolves to
// (one per CPU).
func DefaultWorkers() int { return parallel.DefaultWorkers() }

// DeriveSeed deterministically derives an independent per-item seed from
// a base seed and an item index (a splitmix64 mix), the facility the
// parallel engine uses to keep fanned-out randomness scheduling-free.
func DeriveSeed(base uint64, index int) uint64 { return parallel.Mix(base, index) }

// Metrics.

// RPD computes the Relative Power Difference (Eq. 1).
func RPD(observed, nominal float64) float64 { return core.RPD(observed, nominal) }

// SRPD computes the Super-RPD of a pattern pair (Eq. 2).
func SRPD(obsA, obsB, nomA, nomB, nomAUnique, nomBUnique float64) float64 {
	return core.SRPD(obsA, obsB, nomA, nomB, nomAUnique, nomBUnique)
}

// DetectionProbability evaluates the Eq. 3 bound.
func DetectionProbability(srpd, varsigma float64) float64 {
	return core.DetectionProbability(srpd, varsigma)
}

// Experiments.
type (
	// ExperimentConfig parameterizes the evaluation reproduction.
	ExperimentConfig = core.ExperimentConfig
	// TableIRow is one row of Table I.
	TableIRow = core.TableIRow
	// TableIIRow is one row of Table II.
	TableIIRow = core.TableIIRow
	// RobustnessRow is one regime x policy row of the robustness table.
	RobustnessRow = core.RobustnessRow
	// SigmaSweepRow is one variation magnitude of the measured σ-sweep.
	SigmaSweepRow = core.SigmaSweepRow
)

// RunTableI reproduces Table I (all five benchmark cases).
func RunTableI(cfg ExperimentConfig) ([]TableIRow, error) { return core.RunTableI(cfg) }

// RunTableIContext is RunTableI under a cancellation context.
func RunTableIContext(ctx context.Context, cfg ExperimentConfig) ([]TableIRow, error) {
	return core.RunTableIContext(ctx, cfg)
}

// RunTableICase reproduces one Table I row.
func RunTableICase(c Case, cfg ExperimentConfig) (TableIRow, error) {
	return core.RunTableICase(c, cfg)
}

// RunTableICaseContext is RunTableICase under a cancellation context.
func RunTableICaseContext(ctx context.Context, c Case, cfg ExperimentConfig) (TableIRow, error) {
	return core.RunTableICaseContext(ctx, c, cfg)
}

// RunTableII reproduces Table II from Table I rows.
func RunTableII(rows []TableIRow) []TableIIRow { return core.RunTableII(rows) }

// RunRobustnessTable sweeps tester fault regimes x acquisition policies
// over the benchmark suite plus clean controls.
func RunRobustnessTable(cfg ExperimentConfig) ([]RobustnessRow, error) {
	return core.RunRobustnessTable(cfg)
}

// RunRobustnessTableContext is RunRobustnessTable under a cancellation
// context.
func RunRobustnessTableContext(ctx context.Context, cfg ExperimentConfig) ([]RobustnessRow, error) {
	return core.RunRobustnessTableContext(ctx, cfg)
}

// RunRobustnessRow runs one fault regime under one acquisition policy.
func RunRobustnessRow(regime, policy string, p AcquisitionPolicy, cfg ExperimentConfig) (RobustnessRow, error) {
	return core.RunRobustnessRow(regime, policy, p, cfg)
}

// RunRobustnessRowContext is RunRobustnessRow under a cancellation
// context.
func RunRobustnessRowContext(ctx context.Context, regime, policy string, p AcquisitionPolicy, cfg ExperimentConfig) (RobustnessRow, error) {
	return core.RunRobustnessRowContext(ctx, regime, policy, p, cfg)
}

// RunSigmaSweep hunts a case's Trojan on dies manufactured at each
// variation magnitude (the Table II axis run for real), fanning dies out
// across cfg.Workers. A nil varsigmas uses the Table II magnitudes.
func RunSigmaSweep(c Case, cfg ExperimentConfig, varsigmas []float64, dies int) ([]SigmaSweepRow, error) {
	return core.RunSigmaSweep(c, cfg, varsigmas, dies)
}

// RunSigmaSweepContext is RunSigmaSweep under a cancellation context.
func RunSigmaSweepContext(ctx context.Context, c Case, cfg ExperimentConfig, varsigmas []float64, dies int) ([]SigmaSweepRow, error) {
	return core.RunSigmaSweepContext(ctx, c, cfg, varsigmas, dies)
}

// Pattern persistence.

// WritePatterns serializes patterns in the STIL-like format.
func WritePatterns(w io.Writer, pats []*Pattern) error { return stil.Write(w, pats) }

// ReadPatterns parses a pattern file.
func ReadPatterns(r io.Reader) ([]*Pattern, error) { return stil.Read(r) }

// Report persistence. Reports round-trip through JSON bit-identically —
// unstable (NaN) readings and infinities are carried as null and signed
// "Inf" strings on the wire, the encoding the superposed service also
// speaks.

// WriteReport serializes a certification report as indented JSON.
func WriteReport(w io.Writer, rep *Report) error { return netio.EncodeReport(w, rep) }

// ReadReport parses a JSON certification report.
func ReadReport(r io.Reader) (*Report, error) { return netio.DecodeReport(r) }

// WriteLotReport serializes a lot report as indented JSON.
func WriteLotReport(w io.Writer, lr *LotReport) error { return netio.EncodeLotReport(w, lr) }

// ReadLotReport parses a JSON lot report.
func ReadLotReport(r io.Reader) (*LotReport, error) { return netio.DecodeLotReport(r) }
