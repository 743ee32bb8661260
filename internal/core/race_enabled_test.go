//go:build race

package core

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool intentionally drops a quarter of Puts and allocation
// counts of pooled paths are meaningless.
const raceEnabled = true
