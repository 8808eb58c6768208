// Package harness regenerates every table and figure of the paper's
// evaluation section. Each experiment registers itself under an ID — the
// registry is the experiment index: IDs() lists it, `gkbench -list` prints
// it — prints its measured rows next to the paper's reference values, and
// scales with a single factor so the same code runs in seconds on a laptop
// or for hours at paper scale.
package harness

import (
	"fmt"
	"io"
	"sort"
)

// Options configure one experiment run.
type Options struct {
	Out io.Writer
	// Scale multiplies the default (laptop-tractable) workload sizes;
	// 1.0 is the default quick configuration.
	Scale float64
	// Seed makes dataset generation reproducible.
	Seed int64
}

func (o *Options) applyDefaults() {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// scaled returns n scaled, with a floor to keep statistics meaningful.
func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 50 {
		v = 50
	}
	return v
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID       string
	PaperRef string // e.g. "Table 2", "Figure 5 / Sup. Table S.7"
	Title    string
	Run      func(o Options) error
}

var registry = map[string]Experiment{}

// register adds an experiment at package init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (use IDs())", id)
	}
	return e, nil
}

// IDs returns every registered experiment ID, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// Run executes one experiment by ID with a banner.
func Run(id string, o Options) error {
	o.applyDefaults()
	e, err := Get(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "== %s — %s (%s) ==\n", e.ID, e.Title, e.PaperRef)
	fmt.Fprintf(o.Out, "   scale=%.2f seed=%d\n\n", o.Scale, o.Seed)
	if err := e.Run(o); err != nil {
		return fmt.Errorf("harness: experiment %s: %w", id, err)
	}
	fmt.Fprintln(o.Out)
	return nil
}

// thresholdsFor returns the paper's filtering error thresholds for a read
// length: 0% to 10% of the length, at the grid the supplementary tables use.
func thresholdsFor(readLen int) []int {
	switch readLen {
	case 100:
		return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	case 150:
		return []int{0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15}
	case 250:
		return []int{0, 2, 5, 7, 10, 12, 15, 17, 20, 22, 25}
	default:
		max := readLen / 10
		step := max / 10
		if step < 1 {
			step = 1
		}
		var out []int
		for e := 0; e <= max; e += step {
			out = append(out, e)
		}
		return out
	}
}
