//go:build race

package main

// raceEnabled is true when the tests were built with -race.
const raceEnabled = true
