//go:build race

package server

// raceEnabled reports that this binary was built with the race
// detector, whose sync.Pool poisoning makes pooled paths allocate.
const raceEnabled = true
