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
// when their distance is at most e: Distance's two stages, each keeping what
// a walk back from the bottom-right cell reads. A step is taken when the
// predecessor's value plus the step's cost equals the cell's — diagonal
// before insertion before deletion — and both stages answer that test for
// test. On the wavefront's table a cell's value is the least s with
// F[s][j-i] ≥ i, so at a cell of value s the diagonal step is optimal when
// F[s-1][j-i] ≥ i-1 and the insertion when F[s-1][j-i+1] ≥ i-1; a pruned or
// unreached diagonal holds no row. On a handed-over pair the column pass runs
// once with every advanced block's deltas recorded, and each equality is one
// recorded bit of the cell's own block and column: D0 clear (diagonal + 1),
// Pv set (above + 1), Ph set (left + 1). Either stage's values are exact on
// every cell of every optimal path and never below the true distance
// elsewhere (see wavefront and columns), so the walk stays on optimal paths
// and takes the steps it would take on the full matrix.
//
// The table, the record and Ops live in the verifier: Align allocates only
// when the pair is larger than any before it, and Ops is valid until the
// verifier's next Align or Prepare.
func (v *Verifier) Align(window []byte, e int) (Alignment, bool) {
	m, n := len(v.pat), len(window)
	if abs(m-n) > e {
		return Alignment{}, false // before a window of any length sizes the scratch
	}
	if len(v.ops) < m+n {
		v.ops = make([]Op, m+n)
	}
	if e < m { // the table is sized for e < m, and then n ≥ m-e > 0
		if need := (e + 1) * wavefrontWidth(e); len(v.wf) < need {
			v.wf = make([]int32, need)
		}
		if d, out := v.wavefront(window, e, e+1); out != handOver {
			v.Finished++
			if out == miss {
				return Alignment{}, false
			}
			return Alignment{Distance: d, Ops: v.walk(window, d, e, true)}, true
		}
	}
	if m > 0 && n > 0 {
		v.HandedOver++
	}
	blocks := (m + wordBits - 1) / wordBits
	if len(v.rec) < blocks*n {
		v.rec = make([]blockDeltas, blocks*n)
	}
	if !v.masksBuilt {
		v.buildMasks()
	}
	d, ok := v.record(window, e)
	if !ok {
		return Alignment{}, false
	}
	return Alignment{Distance: d, Ops: v.walk(window, d, e, false)}, true
}

// walk writes the operations of an optimal path of cost d back to front into
// v.ops and returns them: the one walk, reading each step's predecessor test
// from the wavefront's table at threshold e when onTable is set and from the
// column pass's record otherwise.
func (v *Verifier) walk(window []byte, d, e int, onTable bool) []Op {
	a, b := v.pat, window
	m, n := len(a), len(b)
	blocks := (m + wordBits - 1) / wordBits
	w, off := wavefrontWidth(e), e+2
	ops := v.ops[:m+n]
	at := len(ops)
	for i, j, s := m, n, d; i > 0 || j > 0; {
		op := OpDel
		switch {
		case j == 0:
			op = OpIns
		case i == 0: // row 0: only reference bases are left
		case a[i-1] == b[j-1]:
			op = OpMatch // the cell then equals its diagonal neighbour
		case onTable:
			below := v.wf[(s-1)*w:][:w] // score s-1
			if k := j - i + off; int(below[k]) >= i-1 {
				op = OpMismatch
			} else if int(below[k+1]) >= i-1 {
				op = OpIns // consumed a read base without a reference base
			}
			s--
		default:
			cell := &v.rec[(j-1)*blocks+(i-1)/wordBits]
			bit := uint64(1) << (uint(i-1) % wordBits)
			switch {
			case cell.d0&bit == 0:
				op = OpMismatch
			case cell.pv&bit != 0:
				op = OpIns
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
	return ops[at:]
}
