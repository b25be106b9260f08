//go:build race

package serve_test

// raceEnabled reports a -race build, whose detector allocates on its
// own account.
const raceEnabled = true
