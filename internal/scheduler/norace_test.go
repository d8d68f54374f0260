//go:build !race

package scheduler

const raceEnabled = false
