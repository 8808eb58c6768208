package align

import (
	"slices"
	"strconv"
)

// Op is one alignment operation in CIGAR vocabulary.
type Op byte

// Alignment operations ('=' match, 'X' mismatch, 'I' insertion into the
// read, 'D' deletion from the read).
const (
	OpMatch    Op = '='
	OpMismatch Op = 'X'
	OpIns      Op = 'I'
	OpDel      Op = 'D'
)

// Alignment is the result of a global alignment with traceback.
type Alignment struct {
	Distance int
	Ops      []Op // one entry per alignment column, read-major order
}

// CIGAR renders the operations run-length encoded, extended style
// (=/X/I/D). Use CIGARCompat for the classic M-style string.
func (a Alignment) CIGAR() string { return renderCigar(a.Ops, false) }

// CIGARCompat renders the classic SAM CIGAR where matches and mismatches
// both appear as 'M'.
func (a Alignment) CIGARCompat() string { return renderCigar(a.Ops, true) }

// renderCigar run-length encodes ops; compat folds '=' and 'X' into 'M'.
func renderCigar(ops []Op, compat bool) string {
	if len(ops) == 0 {
		return "*"
	}
	var arr [32]byte // most CIGARs fit: the string is then the only allocation
	buf := arr[:0]
	var runClass byte
	runLen := 0
	for _, op := range ops {
		c := byte(op)
		if compat && (op == OpMatch || op == OpMismatch) {
			c = 'M'
		}
		if c == runClass {
			runLen++
			continue
		}
		if runLen > 0 {
			buf = append(strconv.AppendInt(buf, int64(runLen), 10), runClass)
		}
		runClass, runLen = c, 1
	}
	buf = append(strconv.AppendInt(buf, int64(runLen), 10), runClass)
	return string(buf)
}

// Align computes a global alignment of a (the read) against b within an
// edit-distance budget, returning the distance and traceback. It returns
// ok=false when the distance exceeds maxDist. Like DistanceBanded it prepares
// a pooled Verifier per call, and so copies the operations out of it; hold a
// Verifier to align one read against many windows.
func Align(a, b []byte, maxDist int) (Alignment, bool) {
	v := verifiers.Get().(*Verifier)
	v.Prepare(a)
	al, ok := v.Align(b, maxDist)
	al.Ops = slices.Clone(al.Ops)
	verifiers.Put(v)
	return al, ok
}

// Align computes the global alignment of the prepared read against window
// when their distance is at most e: Distance's pass, run once with every
// advanced block's deltas recorded, and a walk back from the bottom-right
// cell over the record. A step is taken when the predecessor's value plus the
// step's cost equals the cell's — diagonal before insertion before deletion —
// and each such equality is one recorded bit of the cell's own block and
// column: D0 clear (diagonal + 1), Pv set (above + 1), Ph set (left + 1). The
// pass's values are exact on every cell of every optimal path and never below
// the true distance elsewhere (see Distance), so the walk stays on optimal
// paths, inside the band, and takes the steps it would take on the full
// matrix.
//
// The record and Ops live in the verifier: Align allocates only when the
// pair is larger than any before it, and Ops is valid until the verifier's
// next Align or Prepare.
func (v *Verifier) Align(window []byte, e int) (Alignment, bool) {
	a, b := v.pat, window
	m, n := len(a), len(b)
	if abs(m-n) > e {
		return Alignment{}, false // before a window of any length sizes the record
	}
	blocks := (m + wordBits - 1) / wordBits
	if len(v.rec) < blocks*n {
		v.rec = make([]blockDeltas, blocks*n)
	}
	if len(v.ops) < m+n {
		v.ops = make([]Op, m+n)
	}
	d, ok := v.record(window, e)
	if !ok {
		return Alignment{}, false
	}
	ops := v.ops[:m+n]
	at := len(ops)
	for i, j := m, n; i > 0 || j > 0; {
		op := OpDel
		switch {
		case j == 0:
			op = OpIns
		case i == 0: // row 0: only reference bases are left
		case a[i-1] == b[j-1]:
			op = OpMatch // D0 is then always set
		default:
			cell := &v.rec[(j-1)*blocks+(i-1)/wordBits]
			bit := uint64(1) << (uint(i-1) % wordBits)
			switch {
			case cell.d0&bit == 0:
				op = OpMismatch
			case cell.pv&bit != 0:
				op = OpIns // consumed a read base without a reference base
			case cell.ph&bit == 0:
				panic("align: traceback found no predecessor in the record")
			}
		}
		at--
		ops[at] = op
		if op != OpDel {
			i--
		}
		if op != OpIns {
			j--
		}
	}
	return Alignment{Distance: d, Ops: ops[at:]}, true
}
