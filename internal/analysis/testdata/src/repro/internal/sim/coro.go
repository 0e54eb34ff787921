// Package sim stands in for internal/sim: coro.go there is the one file
// goroutinefree lets call iter.Pull; any other file of the package is not.
package sim

import "iter"

func adapt(seq iter.Seq[int]) (func() (int, bool), func()) {
	return iter.Pull(seq)
}
