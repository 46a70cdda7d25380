//go:build race

package rl

// raceEnabled reports a race-detector build, which slows rl solves
// about tenfold.
const raceEnabled = true
