//go:build race

package linalg_test

// raceEnabled reports that this binary was built with the race
// detector, under which dense ground truth past a few hundred cells
// takes minutes.
const raceEnabled = true
