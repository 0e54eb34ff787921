// Package gofreebad exercises goroutinefree: go statements, channel
// operations and iter.Pull inside a simulation package are findings; a
// site carrying the escape hatch is not.
package gofreebad

import "iter"

func pull(seq iter.Seq[int]) int {
	next, stop := iter.Pull(seq) // want `iter.Pull in simulation package internal/sim/gofreebad starts a goroutine`
	defer stop()
	v, _ := next()
	return v
}

func spawn(work []int) int {
	ch := make(chan int, len(work)) // want `channel construction in simulation package internal/sim`
	for _, w := range work {
		go func(w int) { ch <- w }(w) // want `go statement` `channel send`
	}
	var sum int
	for range work {
		sum += <-ch // want `channel receive`
	}
	close(ch) // want `channel close`
	return sum
}

func drain(ch chan int) int {
	var sum int
	for v := range ch { // want `range over channel`
		sum += v
	}
	return sum
}

func trySelect(ch chan int) int {
	select { // want `select statement`
	case v := <-ch: // want `channel receive`
		return v
	default:
		return 0
	}
}

func allowed() chan int {
	//lint:allow goroutinefree fixture: demonstrating the escape hatch
	return make(chan int)
}
