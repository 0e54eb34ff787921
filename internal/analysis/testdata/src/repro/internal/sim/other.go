package sim

import "iter"

func adaptToo(seq iter.Seq[int]) (func() (int, bool), func()) {
	return iter.Pull(seq) // want `only internal/sim/coro.go may`
}
