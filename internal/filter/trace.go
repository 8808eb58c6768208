package filter

import (
	"fmt"
	"strings"

	"repro/internal/bitvec"
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

// Trace runs one filtration capturing all intermediate masks. It allocates
// freely and exists for inspection, documentation and debugging; the hot
// path is Kernel.FilterPlanes. It builds whole masks from the interleaved
// encoding, the way the unfused chain did, and its estimate is always
// exhaustive, so it matches a Kernel in exact-estimate mode
// (SetExactEstimate) — the default kernel seals its decision early, with a
// bound in place of the estimate.
func Trace(mode Mode, read, ref []byte, e int) (MaskTrace, error) {
	if len(read) != len(ref) {
		return MaskTrace{}, fmt.Errorf("filter: trace on unequal lengths %d/%d", len(read), len(ref))
	}
	if err := dna.Validate(read); err != nil {
		return MaskTrace{}, err
	}
	if err := dna.Validate(ref); err != nil {
		return MaskTrace{}, err
	}
	L := len(read)
	readEnc, err := dna.Encode(read)
	if err != nil {
		return MaskTrace{}, err
	}
	refEnc, err := dna.Encode(ref)
	if err != nil {
		return MaskTrace{}, err
	}
	ew := bitvec.EncodedWords(L)
	mw := bitvec.MaskWords(L)
	shifted := make([]uint64, ew)
	xorBuf := make([]uint64, ew)
	mask := make([]uint64, mw)
	amended := make([]uint64, mw)
	final := make([]uint64, mw)

	tr := MaskTrace{ReadLen: L, E: e, Mode: mode}

	build := func(name string, shift int) {
		switch {
		case shift == 0:
			copy(shifted, readEnc)
		case shift > 0:
			bitvec.ShiftCharsUp(shifted, readEnc, shift)
		default:
			bitvec.ShiftCharsDown(shifted, readEnc, -shift)
		}
		bitvec.XorInto(xorBuf, shifted, refEnc)
		bitvec.Collapse(mask, xorBuf)
		bitvec.ClearTail(mask, L)
		h := bitvec.String(mask, L)
		bitvec.Amend(amended, mask, L)
		switch {
		case shift > 0 && mode == ModeGPU:
			bitvec.SetLeadingOnes(amended, shift)
		case shift > 0:
			bitvec.ClearLeading(amended, shift)
		case shift < 0 && mode == ModeGPU:
			bitvec.SetTrailingOnes(amended, L, -shift)
		case shift < 0:
			bitvec.ClearTrailing(amended, L, -shift)
		}
		tr.Steps = append(tr.Steps, MaskStep{
			Name: name, Shift: shift, H: h, A: bitvec.String(amended, L),
		})
		if len(tr.Steps) == 1 {
			copy(final, amended)
		} else {
			bitvec.AndInto(final, final, amended)
		}
	}

	build("Hamming", 0)
	if e > 0 {
		for k := 1; k <= e; k++ {
			build(fmt.Sprintf("Deletion %d", k), k)
			build(fmt.Sprintf("Insertion %d", k), -k)
		}
		tr.Final = bitvec.String(final, L)
		tr.Estimate = bitvec.CountWindowsLUT(final, L)
	} else {
		tr.Final = tr.Steps[0].H
		tr.Estimate = bitvec.CountWindowsLUT(mask, L)
	}
	tr.Accept = tr.Estimate <= e
	if e == 0 {
		tr.Accept = tr.Estimate == 0
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
