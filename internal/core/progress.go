package core

// Stage identifies a phase of the certification flow for progress
// reporting. The stages mirror the pipeline structure: seed generation
// and ranking, per-die calibration, the adaptive climb, the focused pair
// analysis, verdict confirmation, and — for lot certification — per-die
// completion.
type Stage string

// The reported stages, in pipeline order.
const (
	StageSeeds     Stage = "seeds"     // ATPG generation / seed ranking
	StageCalibrate Stage = "calibrate" // per-die power-scale calibration
	StageAdaptive  Stage = "adaptive"  // adaptive climb (Step = accepted step or seed index)
	StagePairs     Stage = "pairs"     // superposition + strategic pair analysis
	StageConfirm   Stage = "confirm"   // verdict-pair re-measurement
	StageDie       Stage = "die"       // lot certification: Step dies of Total done
)

// Progress is one progress event of a certification run. Step counts
// completed units of the stage's granularity out of Total (Total is 0
// when the stage has no meaningful denominator).
type Progress struct {
	Stage  Stage  `json:"stage"`
	Step   int    `json:"step"`
	Total  int    `json:"total"`
	Detail string `json:"detail,omitempty"`
}

// ProgressFunc receives progress events from a certification run. A nil
// func disables reporting. Callbacks run synchronously on the measuring
// goroutine — keep them cheap and never call back into the flow. During
// lot certification the per-die events fire from worker goroutines, so a
// ProgressFunc attached to a lot must be safe for concurrent use.
type ProgressFunc func(Progress)

// emit invokes the callback when non-nil.
func (f ProgressFunc) emit(stage Stage, step, total int, detail string) {
	if f != nil {
		f(Progress{Stage: stage, Step: step, Total: total, Detail: detail})
	}
}
