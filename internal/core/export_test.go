package core

import "math"

// RungDelayBound is a convenience for sweeps: the end-to-end delay bound of
// the concatenated chain curve at the given rung, in seconds (+Inf when
// overloaded or starved).
func RungDelayBound(p Pipeline, r Rung) float64 {
	p.Rung = r
	a, err := Analyze(p)
	if err != nil || a.Overloaded {
		return math.Inf(1)
	}
	_, d := a.chainDelay()
	return d
}
