// Package filter implements pre-alignment filters for short read mapping:
// the paper's contribution (the improved GateKeeper algorithm of
// GateKeeper-GPU) and the five comparators of its accuracy evaluation —
// GateKeeper-FPGA, SHD, MAGNET, Shouji, and SneakySnake.
//
// A pre-alignment filter examines a (read, candidate reference segment) pair
// and decides whether the pair can possibly align within an edit-distance
// threshold e. Filters may falsely accept (pass a pair whose true distance
// exceeds e — wasted verification work) but should never falsely reject
// (drop a pair that would have aligned — lost mappings). Every experiment in
// Section 5.1 measures exactly these two failure modes against the exact
// edit distance ("Edlib", package align).
package filter

import "fmt"

// Decision is the outcome of one filtration.
type Decision struct {
	// Accept reports whether the pair should proceed to verification.
	Accept bool
	// Estimate is the filter's approximation of the edit distance. It is
	// meaningful only when the filter computed one (Undefined pairs skip
	// filtration entirely). The GateKeeper kernels stop as soon as the
	// decision is sealed, so by default Estimate is a sealed bound, not the
	// exhaustive windowed count: on an accept an upper bound on it (exact <=
	// Estimate <= e), on a reject a lower bound (e < Estimate <= exact).
	// Callers comparing estimates should request Kernel.SetExactEstimate (the
	// gatekeeper wrappers forward it); decisions are identical either way.
	Estimate int
	// Undefined reports that the pair contained an unknown base call ('N')
	// and was passed through without filtration, as GateKeeper-GPU does by
	// design (Section 3.3).
	Undefined bool
}

// Filter is a pre-alignment filter. Implementations must be safe for
// concurrent use by multiple goroutines unless documented otherwise.
type Filter interface {
	// Name identifies the filter in tables and harness output.
	Name() string
	// Filter decides whether read and ref (equal-length sequences) may be
	// within edit distance e of each other.
	Filter(read, ref []byte, e int) Decision
}

// New constructs a filter by its harness name. Recognized names:
// gatekeeper-gpu, gatekeeper-fpga, shd, magnet, shouji, sneakysnake, and
// genasm (a related-work extension beyond the paper's comparison set).
func New(name string) (Filter, error) {
	switch name {
	case "gatekeeper-gpu":
		return NewGateKeeperGPU(), nil
	case "gatekeeper-fpga":
		return NewGateKeeperFPGA(), nil
	case "shd":
		return NewSHD(), nil
	case "magnet":
		return NewMAGNET(), nil
	case "shouji":
		return NewShouji(), nil
	case "sneakysnake":
		return NewSneakySnake(), nil
	case "genasm":
		return NewGenASM(), nil
	default:
		return nil, fmt.Errorf("filter: unknown filter %q", name)
	}
}

// All returns one instance of every implemented filter, in the order the
// paper's comparison figures list them.
func All() []Filter {
	return []Filter{
		NewGateKeeperGPU(),
		NewGateKeeperFPGA(),
		NewSHD(),
		NewShouji(),
		NewMAGNET(),
		NewSneakySnake(),
	}
}
