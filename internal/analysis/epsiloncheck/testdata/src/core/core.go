// Package core is the golden model of the real internal/core accounting
// types for the epsiloncheck analyzer: same package name, type names, and
// field names, so the analyzer's rules match without importing the real
// package.
package core

// Distance mirrors core.Distance.
type Distance = int64

// Accumulator mirrors the hierarchical inconsistency accumulator.
type Accumulator struct {
	limits []Distance
	used   []Distance
	path   []int
}

// NewAccumulator is an allowed writer.
func NewAccumulator(n int) *Accumulator {
	a := &Accumulator{limits: make([]Distance, n), used: make([]Distance, n)}
	a.limits[0] = 42
	return a
}

// Init is an allowed writer: the in-place (allocation-free) form of
// NewAccumulator used by embedded accumulators.
func (a *Accumulator) Init(n int) {
	a.limits = make([]Distance, n)
	a.used = make([]Distance, n)
}

// Admit is an allowed writer: the bounds-check accounting path.
func (a *Accumulator) Admit(g int, d Distance) bool {
	if a.used[g]+d > a.limits[g] {
		return false
	}
	a.used[g] += d
	return true
}

// Reset is an allowed writer.
func (a *Accumulator) Reset() {
	for i := range a.used {
		a.used[i] = 0
	}
}

// Total only reads accounting state: no diagnostic.
func (a *Accumulator) Total() Distance { return a.used[0] }

// Remaining is on the arithmetic allowlist: its raw subtraction over the
// protected slices is the sanctioned headroom computation.
func (a *Accumulator) Remaining() Distance {
	return a.limits[0] - a.used[0]
}

// headroomByHand recomputes the bound outside the allowlist: both
// protected operands are flagged.
func (a *Accumulator) headroomByHand() Distance {
	return a.limits[0] - a.used[0] // want `raw arithmetic on inconsistency accounting field core\.Accumulator\.limits` `raw arithmetic on inconsistency accounting field core\.Accumulator\.used`
}

// ForceCharge bypasses the bounds check: every mutation is flagged.
func (a *Accumulator) ForceCharge(g int, d Distance) {
	a.used[g] += d  // want `accounting field core\.Accumulator\.used written outside`
	a.limits[g] = 0 // want `accounting field core\.Accumulator\.limits written outside`
}

// Drain leaks a pointer to the accounting array, defeating the analyzer's
// visibility: taking the address counts as a write.
func (a *Accumulator) Drain() *Distance {
	return &a.used[0] // want `accounting field core\.Accumulator\.used written outside`
}

// rebuild constructs an Accumulator outside the allowed writers.
func rebuild() *Accumulator {
	a := new(Accumulator)
	a.used = nil // want `accounting field core\.Accumulator\.used written outside`
	return a
}
