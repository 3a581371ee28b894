//go:build race

package levioso

const raceEnabled = true
