// Package core implements the paper's contribution: self-referencing test
// pattern superposition for power side-channel hardware Trojan detection.
//
// The package provides the evaluation metrics (RPD of Eq. 1, S-RPD of
// Eq. 2, the TCA activity ratio, and the Eq. 3 detection-probability
// bound), the adaptive transition-reduction flow of §IV-B, the
// superposition pair analysis of §IV-C, the strategic test pattern
// modifications of §IV-D (Fig. 2), and the end-to-end Detector pipeline
// that ties them together.
package core

import (
	"fmt"
	"sort"

	"superpose/internal/stats"
)

// RPD computes the Relative Power Difference of Eq. 1: the deviation of an
// observed power reading from its pre-silicon nominal expectation.
func RPD(observed, nominal float64) float64 {
	if nominal == 0 {
		return 0
	}
	return (observed - nominal) / nominal
}

// SplitToggles partitions two toggle sets into the common part and the two
// unique parts (Gcmn, Gaunq, Gbunq of §V-A). Inputs need not be sorted;
// outputs are sorted.
func SplitToggles(a, b []int) (common, aUnique, bUnique []int) {
	// Toggle sets from the simulator are already ascending — only
	// copy-and-sort an input that actually needs it.
	if !sort.IntsAreSorted(a) {
		a = append([]int(nil), a...)
		sort.Ints(a)
	}
	if !sort.IntsAreSorted(b) {
		b = append([]int(nil), b...)
		sort.Ints(b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common = append(common, a[i])
			i++
			j++
		case a[i] < b[j]:
			aUnique = append(aUnique, a[i])
			i++
		default:
			bUnique = append(bUnique, b[j])
			j++
		}
	}
	aUnique = append(aUnique, a[i:]...)
	bUnique = append(bUnique, b[j:]...)
	return common, aUnique, bUnique
}

// SRPD computes the Super-RPD of Eq. 2 for a pattern pair: the observed
// power difference minus the nominal power difference, normalized by the
// sum of the nominal powers of the uniquely activated gate sets. The
// denominator choice is the paper's footnote 4: the process-variation
// exposure of the differential reading scales with the total unique
// power, not with the difference.
func SRPD(obsA, obsB, nomA, nomB, nomAUnique, nomBUnique float64) float64 {
	den := nomAUnique + nomBUnique
	if den == 0 {
		return 0
	}
	return ((obsA - obsB) - (nomA - nomB)) / den
}

// TCA is the Trojan-to-Circuit Activity ratio of [Salmani & Tehranipoor,
// TIFS 2012]: the fraction of switching activity that belongs to Trojan
// gates. It requires ground truth and is an evaluation metric only — the
// detection flow never sees it.
func TCA(toggles []int, isTrojan func(int) bool) float64 {
	if len(toggles) == 0 {
		return 0
	}
	t := 0
	for _, id := range toggles {
		if isTrojan(id) {
			t++
		}
	}
	return float64(t) / float64(len(toggles))
}

// PairTCA is the differential-activity TCA of a superposition pair: the
// Trojan share of the gates activated by exactly one of the two patterns
// (the common activity cancels, so only unique activity carries signal).
func PairTCA(togglesA, togglesB []int, isTrojan func(int) bool) float64 {
	_, aU, bU := SplitToggles(togglesA, togglesB)
	u := append(aU, bU...)
	return TCA(u, isTrojan)
}

// DetectionProbability evaluates the Eq. 3 bound: given an achieved S-RPD
// and an intra-die variation magnitude expressed as the paper's
// 3σ_intra = ς convention, the benign hypothesis can only produce
// |S-RPD| ≤ k·σ_intra with probability Φ(k); the achieved signal is
// therefore a reliable detection with probability Φ(3·SRPD/ς).
func DetectionProbability(srpd, varsigma float64) float64 {
	if varsigma <= 0 {
		if srpd > 0 {
			return 1
		}
		return 0
	}
	if srpd < 0 {
		srpd = -srpd
	}
	return stats.Phi(3 * srpd / varsigma)
}

// FormatProbability renders a detection probability the way Table II
// does: probabilities at or above 99.995 print as "> 99.99%".
func FormatProbability(p float64) string {
	if p >= 0.99995 {
		return "> 99.99%"
	}
	return fmt.Sprintf("%.2f%%", 100*p)
}

// MaxBenignSRPD returns the largest S-RPD magnitude that benign intra-die
// variation can explain, per the Eq. 3 derivation: ς itself (at the 3σ
// point of the distribution).
func MaxBenignSRPD(varsigma float64) float64 { return varsigma }
