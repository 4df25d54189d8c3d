//go:build !race

package service

// raceEnabled reports whether the tests run under the race detector,
// which slows the certification pipeline several-fold.
const raceEnabled = false
