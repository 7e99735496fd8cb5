package main

import (
	"runtime"
	"time"
)

// cycles repeats passes while the budget lasts. A cycle is one untraced
// pass, followed in traced runs by one traced pass; there are at least
// o.minCycles cycles, and no new one starts once the last one would
// overrun the budget.
func cycles[P any](o options, pass func(traced bool) (P, error)) (plain, traced []P, err error) {
	start := time.Now()
	for cycle := 1; ; cycle++ {
		c0 := time.Now()
		p, err := pass(false)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, p)
		if o.trace {
			p, err := pass(true)
			if err != nil {
				return nil, nil, err
			}
			traced = append(traced, p)
		}
		if cycle >= o.minCycles && time.Since(start)+time.Since(c0) > o.budget {
			return plain, traced, nil
		}
	}
}

// medOf returns the median of f over the passes.
func medOf[P any](ps []P, f func(P) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// Set-up is sampled beyond the passes (cheap set-ups are noisy, so their
// median needs more samples): builds repeat until there are setupMin
// samples or setupBudget has gone into the extra builds.
const (
	setupMin    = 15
	setupBudget = 2 * time.Second
)

// setupSamples returns the passes' set-up times xs plus those of extra
// set-up-only builds, each timed from a freshly collected heap.
func setupSamples(xs []float64, build func() error) ([]float64, error) {
	for spent := time.Duration(0); len(xs) < setupMin && spent < setupBudget; {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}
