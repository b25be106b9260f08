//go:build !race

package stream

// raceEnabled reports a -race build, whose detector allocates on its
// own account.
const raceEnabled = false
