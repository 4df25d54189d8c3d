package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"superpose/internal/power"
	"superpose/internal/scan"
	"superpose/internal/stats"
	"superpose/internal/trust"
)

// countdownCtx reports cancellation only after Err has been called n
// times: a deterministic way to cancel at the k-th acquisition
// checkpoint, without goroutine timing.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

func TestMeasureBatchCancelledContext(t *testing.T) {
	dev, pats := buildAcqBench(t, 6, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dev.SetContext(ctx)

	got := dev.MeasureBatch(pats)
	for i, v := range got {
		if !math.IsNaN(v) {
			t.Errorf("reading %d = %v after cancellation, want NaN", i, v)
		}
	}
	if !errors.Is(dev.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", dev.Err())
	}

	// The sticky error persists across calls until the context changes.
	_ = dev.MeasureBatch(pats[:1])
	if !errors.Is(dev.Err(), context.Canceled) {
		t.Errorf("Err() not sticky: %v", dev.Err())
	}

	// Clearing the context restores normal acquisition.
	dev.SetContext(nil)
	if dev.Err() != nil {
		t.Errorf("Err() = %v after SetContext(nil), want nil", dev.Err())
	}
	for i, v := range dev.MeasureBatch(pats) {
		if math.IsNaN(v) {
			t.Errorf("reading %d still NaN after clearing the context", i)
		}
	}
}

// TestMeasureBatchCancelMidAcquisition cancels between tester passes:
// the delivered readings must be all-NaN, never an aggregate over the
// passes that happened to finish before the cancellation.
func TestMeasureBatchCancelMidAcquisition(t *testing.T) {
	dev, pats := buildAcqBench(t, 6, 4)
	// Noise forces the full repeats path (the noiseless fast path takes a
	// single pass and would finish before any mid-acquisition check).
	dev.chip.SetMeasurementNoise(0.01)
	dev.SetAcquisition(AcquisitionPolicy{Repeats: 5})

	// Let exactly two checkpoints pass (the entry check plus one
	// between-pass check), then cancel.
	dev.SetContext(&countdownCtx{Context: context.Background(), left: 2})
	got := dev.MeasureBatch(pats)
	for i, v := range got {
		if !math.IsNaN(v) {
			t.Errorf("reading %d = %v from a mid-acquisition cancel, want NaN (no partial aggregates)", i, v)
		}
	}
	if !errors.Is(dev.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", dev.Err())
	}
}

func TestMeasureSweepCancelledContext(t *testing.T) {
	dev, pats := buildAcqBench(t, 6, 1)
	base := pats[0]
	flips := []scan.Flip{{Chain: 0, Index: 0}, {Chain: 0, Index: 1}, {Chain: 1, Index: 0}}
	sw, err := dev.NewSweeper(flips)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Rebase(base, base); err != nil {
		t.Fatal(err)
	}
	ids, masks := sw.RunLanes([]int{0, 1, 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dev.SetContext(ctx)
	got := dev.measureToggled(ids, masks, len(flips), func(l int) readingKey {
		return readingKey{pat: base, chain: flips[l].Chain, index: flips[l].Index, sweep: true}
	})
	for i, v := range got {
		if !math.IsNaN(v) {
			t.Errorf("sweep lane %d = %v after cancellation, want NaN", i, v)
		}
	}
	if !errors.Is(dev.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", dev.Err())
	}
}

func TestAdaptiveContextCancelled(t *testing.T) {
	ev, ch := evalFixture(t)
	seed := ch.RandomPattern(stats.NewRNG(21))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ev.AdaptiveContext(ctx, seed, AdaptiveOptions{MaxSteps: 30})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Steps) == 0 {
		t.Fatal("cancelled climb must still return the partial trajectory")
	}
	if len(res.Steps) > 1 {
		t.Errorf("pre-cancelled climb took %d steps, want the seed only", len(res.Steps))
	}
}

func TestDetectContextCancelled(t *testing.T) {
	n, err := trust.Generate(trust.Params{Name: "ctxflow", PIs: 4, POs: 4, FFs: 12, Comb: 90, Levels: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.1), 1)
	dev := NewDevice(chip, 2, scan.LOS)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := DetectContext(ctx, n, lib, dev, Config{NumChains: 2, Varsigma: 0.1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Error("cancelled detect must not deliver a report")
	}
}

func TestCertifyLotContextCancelled(t *testing.T) {
	n, err := trust.Generate(trust.Params{Name: "ctxlot", PIs: 4, POs: 4, FFs: 12, Comb: 90, Levels: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lr, err := CertifyLotContext(ctx, n, lib, n, Config{NumChains: 2, Varsigma: 0.1},
		LotOptions{Dies: 2, Variation: power.ThreeSigmaIntra(0.1), Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if lr != nil {
		t.Error("cancelled lot must not deliver a report")
	}
}

// TestDetectProgressOrdering pins the progress contract: stages arrive
// in pipeline order and the step counters stay within their totals.
func TestDetectProgressOrdering(t *testing.T) {
	n, err := trust.Generate(trust.Params{Name: "prog", PIs: 4, POs: 4, FFs: 12, Comb: 90, Levels: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lib := power.SAED90Like()
	chip := power.Manufacture(n, lib, power.ThreeSigmaIntra(0.1), 1)
	dev := NewDevice(chip, 2, scan.LOS)

	var events []Progress
	cfg := Config{NumChains: 2, Varsigma: 0.1, MaxSeeds: 2,
		Progress: func(p Progress) { events = append(events, p) }}
	if _, err := DetectContext(context.Background(), n, lib, dev, cfg); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	rank := map[Stage]int{StageSeeds: 0, StageCalibrate: 1, StageAdaptive: 2, StagePairs: 3, StageConfirm: 4}
	last := -1
	seen := map[Stage]bool{}
	for i, ev := range events {
		r, ok := rank[ev.Stage]
		if !ok {
			t.Fatalf("event %d: unexpected stage %q", i, ev.Stage)
		}
		if r < last {
			t.Errorf("event %d: stage %q after %d — out of pipeline order", i, ev.Stage, last)
		}
		last = r
		seen[ev.Stage] = true
		if ev.Total > 0 && (ev.Step < 0 || ev.Step > ev.Total) {
			t.Errorf("event %d: step %d outside [0, %d]", i, ev.Step, ev.Total)
		}
	}
	for _, must := range []Stage{StageSeeds, StageCalibrate, StageAdaptive} {
		if !seen[must] {
			t.Errorf("stage %q never reported", must)
		}
	}
}
