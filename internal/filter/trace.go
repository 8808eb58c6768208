package filter

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dna"
)

// MaskTrace records every intermediate bitvector of one filtration — the
// material of the paper's Figures 2 and 3 and Sup. Figure S.1, where H is
// the Hamming (XOR) mask of a shifted comparison and A its amended form.
type MaskTrace struct {
	ReadLen int
	E       int
	Mode    Mode

	Steps []MaskStep
	// Final is the AND of all amended (and edge-forced) masks.
	Final string
	// Estimate and Accept are the kernel's decision for the pair.
	Estimate int
	Accept   bool
}

// MaskStep is one of the 2e+1 mask constructions.
type MaskStep struct {
	// Name is "Hamming", "Deletion k" or "Insertion k".
	Name string
	// Shift is 0 for the Hamming mask, +k for deletions, -k for insertions.
	Shift int
	// H is the raw XOR mask ('0' match, '1' mismatch), position 0 first.
	H string
	// A is the amended mask after edge treatment (forced 1s in GPU mode,
	// zeroed in FPGA mode).
	A string
}

// charMasks is one shifted comparison of the per-character model: one bool
// per base, true where the pair disagrees.
type charMasks struct {
	shift int
	h, a  []bool
}

// charTrace is everything the per-character model computes for one pair.
type charTrace struct {
	steps    []charMasks
	final    []bool
	estimate int
	accept   bool
}

// charModel is the GateKeeper-GPU algorithm one character at a time — no
// words, no planes, no bit tricks. It is what Trace renders and the oracle the
// kernel's tests and fuzz targets compare against: any divergence between the
// two is a bug in the window reads, the block masking, the amendment, the edge
// forcing, or the windowed counter. The caller guarantees equal lengths,
// recognized bases and 0 <= e <= len(read).
func charModel(mode Mode, read, ref []byte, e int) charTrace {
	L := len(read)
	shifts := []int{0}
	for k := 1; k <= e; k++ {
		shifts = append(shifts, k, -k) // deletion k, insertion k
	}
	var t charTrace
	for _, shift := range shifts {
		h := make([]bool, L)
		for i := range h {
			// A shift brings in zero bits, so before amendment a vacated
			// position compares code 0 ('A') against the reference — exactly
			// what the bit-parallel XOR produces.
			var c byte
			if j := i - shift; j >= 0 && j < L {
				c, _ = dna.Code(read[j])
			}
			r, _ := dna.Code(ref[i])
			h[i] = c != r
		}
		a := amendBools(h)
		for i := range a {
			if j := i - shift; j < 0 || j >= L {
				a[i] = mode == ModeGPU // GPU forces 1s, FPGA zeroes
			}
		}
		t.steps = append(t.steps, charMasks{shift: shift, h: h, a: a})
	}
	// e == 0 is exact matching: the Hamming row as it is, unamended.
	t.final = t.steps[0].h
	if e > 0 {
		t.final = slices.Clone(t.steps[0].a)
		for _, s := range t.steps[1:] {
			for i := range t.final {
				t.final[i] = t.final[i] && s.a[i]
			}
		}
	}
	t.estimate = countWindowsBools(t.final)
	t.accept = t.estimate <= e
	return t
}

// amendBools turns 0-runs of length <= 2 flanked by 1s into 1s.
func amendBools(mask []bool) []bool {
	out := slices.Clone(mask)
	n := len(mask)
	for i := 0; i < n; i++ {
		if mask[i] {
			continue
		}
		j := i
		for j < n && !mask[j] {
			j++
		}
		if j-i <= 2 && i-1 >= 0 && mask[i-1] && j < n && mask[j] {
			for p := i; p < j; p++ {
				out[p] = true
			}
		}
		i = j - 1
	}
	return out
}

// countWindowsBools counts non-overlapping 4-bit windows containing any set
// bit.
func countWindowsBools(mask []bool) int {
	count := 0
	for i := 0; i < len(mask); i += 4 {
		if slices.Contains(mask[i:min(i+4, len(mask))], true) {
			count++
		}
	}
	return count
}

// maskString renders a mask as a '0'/'1' string, position 0 first.
func maskString(mask []bool) string {
	out := make([]byte, len(mask))
	for i, set := range mask {
		out[i] = '0'
		if set {
			out[i] = '1'
		}
	}
	return string(out)
}

// Trace runs one filtration capturing all intermediate masks. It allocates
// freely and exists for inspection, documentation and debugging; the hot
// path is Kernel.FilterPlanes. It renders the per-character model
// (charModel), which shares no code with the kernel, and its estimate is
// always exhaustive, so it matches a Kernel in exact-estimate mode
// (SetExactEstimate) — the default kernel seals its decision early, with a
// bound in place of the estimate. Like Kernel.FilterChecked it refuses a
// threshold no kernel geometry has: e < 0 or e > len(read).
func Trace(mode Mode, read, ref []byte, e int) (MaskTrace, error) {
	if len(read) != len(ref) {
		return MaskTrace{}, fmt.Errorf("filter: trace on unequal lengths %d/%d", len(read), len(ref))
	}
	if e < 0 || e > len(read) {
		return MaskTrace{}, fmt.Errorf("filter: trace error threshold %d outside [0,%d]", e, len(read))
	}
	if err := dna.Validate(read); err != nil {
		return MaskTrace{}, err
	}
	if err := dna.Validate(ref); err != nil {
		return MaskTrace{}, err
	}
	m := charModel(mode, read, ref, e)
	tr := MaskTrace{
		ReadLen: len(read), E: e, Mode: mode,
		Final: maskString(m.final), Estimate: m.estimate, Accept: m.accept,
	}
	for _, s := range m.steps {
		name := "Hamming"
		switch {
		case s.shift > 0:
			name = fmt.Sprintf("Deletion %d", s.shift)
		case s.shift < 0:
			name = fmt.Sprintf("Insertion %d", -s.shift)
		}
		tr.Steps = append(tr.Steps, MaskStep{Name: name, Shift: s.shift, H: maskString(s.h), A: maskString(s.a)})
	}
	return tr, nil
}

// Render prints the trace in the visual style of the paper's figures.
func (t MaskTrace) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode=%s L=%d e=%d\n", modeName(t.Mode), t.ReadLen, t.E)
	for _, s := range t.Steps {
		fmt.Fprintf(&sb, "%-12s H %s\n", s.Name, s.H)
		fmt.Fprintf(&sb, "%-12s A %s\n", "", s.A)
	}
	fmt.Fprintf(&sb, "%-12s   %s\n", "AND", t.Final)
	fmt.Fprintf(&sb, "estimate=%d accept=%v\n", t.Estimate, t.Accept)
	return sb.String()
}

func modeName(m Mode) string {
	if m == ModeFPGA {
		return "GateKeeper-FPGA"
	}
	return "GateKeeper-GPU"
}
