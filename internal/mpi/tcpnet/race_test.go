//go:build race

package tcpnet

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
