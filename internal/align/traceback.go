package align

import (
	"math"
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
func (a Alignment) CIGAR() string {
	return renderCigar(a.Ops, func(op Op) byte { return byte(op) })
}

// CIGARCompat renders the classic SAM CIGAR where matches and mismatches
// both appear as 'M'.
func (a Alignment) CIGARCompat() string {
	return renderCigar(a.Ops, func(op Op) byte {
		if op == OpMatch || op == OpMismatch {
			return 'M'
		}
		return byte(op)
	})
}

func renderCigar(ops []Op, classify func(Op) byte) string {
	if len(ops) == 0 {
		return "*"
	}
	var arr [32]byte // most CIGARs fit: the string is then the only allocation
	buf := arr[:0]
	runClass := classify(ops[0])
	runLen := 1
	for _, op := range ops[1:] {
		c := classify(op)
		if c == runClass {
			runLen++
			continue
		}
		buf = append(strconv.AppendInt(buf, int64(runLen), 10), runClass)
		runClass, runLen = c, 1
	}
	buf = append(strconv.AppendInt(buf, int64(runLen), 10), runClass)
	return string(buf)
}

// Align computes a global alignment of a (the read) against b within an
// edit-distance budget, returning the distance and traceback. It returns
// ok=false when the distance exceeds maxDist. Like DistanceBanded it prepares
// a pooled Verifier per call; hold a Verifier to align one read against many
// windows.
func Align(a, b []byte, maxDist int) (Alignment, bool) {
	v := verifiers.Get().(*Verifier)
	v.Prepare(a)
	al, ok := v.Align(b, maxDist)
	verifiers.Put(v)
	return al, ok
}

// Align computes the global alignment of the prepared read against window
// when their distance is at most e. Distance answers first, so a miss costs
// no DP; on a hit the band that is filled for the traceback has half-width d,
// the distance just found, not e — every cell of every optimal path lies
// within d of the main diagonal, so the traceback (diagonal before insertion
// before deletion) takes the steps it would take in any wider band. The band
// lives in the verifier's reusable buffer; only Ops is allocated.
func (v *Verifier) Align(window []byte, e int) (Alignment, bool) {
	d, ok := v.Distance(window, e)
	if !ok {
		return Alignment{}, false
	}
	a, b := v.pat, window
	m, n := len(a), len(b)
	// Out-of-band and out-of-matrix cells hold inf (or a little more); the
	// path's own cells are ≤ d, so the equalities below never match one.
	const inf = math.MaxInt32 / 2
	width := 2*d + 1
	if need := (m + 1) * width; cap(v.band) < need {
		v.band = make([]int32, need)
	}
	// rows[i*width+k] is D[i][j] with j = i + k - d.
	rows := v.band[:(m+1)*width]
	for k := 0; k < width; k++ {
		if j := k - d; j >= 0 && j <= n {
			rows[k] = int32(j)
		} else {
			rows[k] = inf
		}
	}
	for i := 1; i <= m; i++ {
		prev, cur := rows[(i-1)*width:i*width], rows[i*width:(i+1)*width]
		for k := range cur {
			j := i + k - d
			switch {
			case j < 0 || j > n:
				cur[k] = inf
				continue
			case j == 0:
				cur[k] = int32(i)
				continue
			}
			best := prev[k] // substitution / match
			if a[i-1] != b[j-1] {
				best++
			}
			if k+1 < width { // read base against a gap
				best = min(best, prev[k+1]+1)
			}
			if k > 0 { // reference base against a gap
				best = min(best, cur[k-1]+1)
			}
			cur[k] = best
		}
	}

	// Traceback from (m, n).
	ops := make([]Op, 0, m+d)
	i, k := m, n-m+d
	for {
		j := i + k - d
		if i == 0 && j == 0 {
			break
		}
		cur := rows[i*width+k]
		switch {
		case i > 0 && j > 0 && a[i-1] == b[j-1] && rows[(i-1)*width+k] == cur:
			ops = append(ops, OpMatch)
			i--
		case i > 0 && j > 0 && a[i-1] != b[j-1] && rows[(i-1)*width+k]+1 == cur:
			ops = append(ops, OpMismatch)
			i--
		case i > 0 && k+1 < width && rows[(i-1)*width+k+1]+1 == cur:
			// Consumed a read base without a reference base.
			ops = append(ops, OpIns)
			i--
			k++
		case j > 0 && k > 0 && rows[i*width+k-1]+1 == cur:
			ops = append(ops, OpDel)
			k--
		default:
			panic("align: traceback found no predecessor in the band")
		}
	}
	// Reverse into read-major order.
	for lo, hi := 0, len(ops)-1; lo < hi; lo, hi = lo+1, hi-1 {
		ops[lo], ops[hi] = ops[hi], ops[lo]
	}
	return Alignment{Distance: d, Ops: ops}, true
}
