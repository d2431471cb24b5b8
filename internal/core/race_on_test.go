//go:build race

package core

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops a quarter of its puts at random: a pooled object then allocates
// a quarter of the time, and an exact allocation pin over many pooled
// messages cannot hold.
const raceEnabled = true
