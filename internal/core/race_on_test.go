//go:build race

package core

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops items at random, so fmt's printer state is sometimes
// allocated afresh and allocation counts that include a fmt call vary.
const raceEnabled = true
