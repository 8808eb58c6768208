package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dna"
)

// How a pair is expected to leave the verifier's first stage. The two
// hand-over kinds differ in what the test can tell from outside: a pair whose
// common prefix is short of half an error-free stretch falls at score 0, a
// handed-over pair with a longer one survived score 0 and fell later.
const (
	wantHit     = "finished hit"
	wantMiss    = "finished miss"
	wantOver0   = "handed over at s = 0"
	wantOver1   = "handed over at s ≥ 1"
	wantColumns = "e ≥ m: straight to the column pass"
	wantLengths = "settled by the lengths"
)

// differing returns seq with every base replaced by another one, so no
// position of the result matches the same position of seq.
func differing(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, c := range seq {
		out[i] = "CGTA"[bytes.IndexByte([]byte("ACGT"), c)]
	}
	return out
}

// substituted returns seq with the bases at the given positions changed.
func substituted(seq []byte, at ...int) []byte {
	out := bytes.Clone(seq)
	for _, p := range at {
		out[p] = differing(seq[p : p+1])[0]
	}
	return out
}

// cat concatenates copies of its arguments.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

type outcomeCase struct {
	name         string
	read, window []byte
	e            int
	want         string
}

// outcomeCases builds the table: at each of the rig's three read shapes every
// way out of the wavefront, then the inputs where a wavefront usually breaks —
// unequal lengths, an edit in the first bases, a one-letter read (every
// diagonal extends, every step ties), 'N' on either side, e = 0, e ≥ m — and a
// mask sequence whose middle read never leaves the wavefront.
func outcomeCases() []outcomeCase {
	rng := rand.New(rand.NewSource(19))
	var cases []outcomeCase
	add := func(name string, read, window []byte, e int, want string) {
		cases = append(cases, outcomeCase{name, read, window, e, want})
	}
	for _, sh := range []struct{ L, e int }{{50, 2}, {100, 5}, {300, 15}} {
		L, e := sh.L, sh.e
		p := func(s string) string { return fmt.Sprintf("L%d-e%d/%s", L, e, s) }
		read := dna.RandomSeq(rng, L)
		stretch := L / (e + 1)

		add(p("exact"), read, read, e, wantHit)

		// e edits, one at the end of each error-free stretch, of all three
		// kinds: the pair the pace rule is drawn around.
		spread := []byte{}
		for t := 0; t <= e; t++ {
			seg := read[t*L/(e+1) : (t+1)*L/(e+1)]
			spread = append(spread, seg...)
			switch {
			case t == e: // the last stretch ends the read
			case t%3 == 0: // substitution
				spread[len(spread)-1] = differing(seg[len(seg)-1:])[0]
			case t%3 == 1: // deletion from the read: the window gains a base
				spread = append(spread, differing(seg[len(seg)-1:])[0])
			case t%3 == 2: // insertion into the read: the window loses one
				spread = spread[:len(spread)-1]
			}
		}
		add(p("spread-edits"), read, spread, e, wantHit)

		// A gap with a mismatch right behind it: a gap step that lands a row
		// too far steps over the mismatch.
		at := 2 * L / 3
		add(p("deletion-then-substitution"), read, cat(read[:at], differing(read[at:at+1]), differing(read[at:at+1]), read[at+1:]), e, wantHit)
		add(p("insertion-then-substitution"), read, cat(read[:at], differing(read[at+1:at+2]), read[at+2:]), e, wantHit)

		add(p("window-one-short"), read, cat(read[:L/2], read[L/2+1:]), e, wantHit)
		add(p("window-two-long"), read, cat(read[:2*L/3], []byte("GT"), read[2*L/3:]), e, wantHit)

		// Keeps pace to the last score and still misses: the last e+1 window
		// bytes are a symbol the read does not hold.
		add(p("late-cluster"), read, cat(read[:L-e-1], bytes.Repeat([]byte("x"), e+1)), e, wantMiss)

		// First byte differs: reach 0 at score 0.
		unrelated := dna.RandomSeq(rng, L)
		unrelated[0] = differing(read[:1])[0]
		add(p("unrelated"), read, unrelated, e, wantOver0)

		// A hit whose first edit is inside the first m/(2(e+1)) bases.
		add(p("early-edit"), read, substituted(read, stretch/2-1), e, wantOver0)
		add(p("early-edit-and-more"), read, substituted(read, 1, L/2, L-2), e, wantOver0)

		// Half a stretch and a little of exact prefix, then nothing alike:
		// survives score 0, falls at the next.
		pre := stretch/2 + 2
		tail := dna.RandomSeq(rng, L-pre)
		tail[0] = differing(read[pre : pre+1])[0]
		add(p("prefix-then-unrelated"), read, cat(read[:pre], tail), e, wantOver1)
	}

	read := dna.RandomSeq(rng, 100)
	as := bytes.Repeat([]byte("A"), 100)
	add("one-letter/exact", as, as, 5, wantHit)
	add("one-letter/window-short", as, as[:97], 5, wantHit)
	add("one-letter/window-long", as, cat(as, as[:4]), 5, wantHit)
	add("one-letter/one-other", as, substituted(as, 60), 5, wantHit)
	add("one-letter/one-other-and-short", as, substituted(as[:99], 49), 5, wantHit) // the mismatch ties with the insertion
	add("one-letter/one-other-and-long", as, substituted(cat(as, as[:1]), 49), 5, wantHit)
	add("one-letter/other-letter", as, differing(as), 5, wantOver0)
	add("one-letter/gap-and-cluster", as, cat(as[:92], []byte("CCCCCC")), 5, wantMiss)

	withN := func(seq []byte, at int) []byte {
		out := bytes.Clone(seq)
		out[at] = 'N'
		return out
	}
	add("N/read", withN(read, 50), read, 5, wantHit)
	add("N/window", read, withN(read, 50), 5, wantHit)
	add("N/both", withN(read, 50), withN(read, 50), 5, wantHit)
	add("N/both-apart", withN(read, 40), withN(read, 70), 5, wantHit)
	add("N/first-base", withN(read, 0), read, 5, wantOver0)

	add("e0/exact", read, read, 0, wantHit)
	add("e0/one-substitution", read, substituted(read, 99), 0, wantMiss)
	add("e0/first-base", read, substituted(read, 0), 0, wantMiss)
	add("e0/lengths", read, read[:99], 0, wantLengths)

	short := dna.RandomSeq(rng, 8)
	add("e≥m/e=m", short, substituted(short, 3), 8, wantColumns)
	add("e≥m/e>m", short, dna.RandomSeq(rng, 14), 11, wantColumns)
	add("e≥m/miss", short, cat(differing(short), differing(short)), 8, wantColumns)
	add("e=m-1", short, substituted(short, 3), 7, wantHit)

	// Masks are built at a read's first hand-over and remember whose they
	// are: the middle read never hands over, so the last one must clear the
	// first one's bits, not the middle one's.
	first, middle, last := dna.RandomSeq(rng, 100), dna.RandomSeq(rng, 100), dna.RandomSeq(rng, 100)
	add("masks/first-hands-over", first, substituted(first, 2), 5, wantOver0)
	add("masks/middle-stays", middle, middle, 5, wantHit)
	add("masks/last-hands-over", last, substituted(last, 2, 50), 5, wantOver0)
	return cases
}

// TestVerifierOutcomes drives one verifier through every way a pair can leave
// the wavefront — read off the verifier's own two counters — and holds each
// answer to the quadratic DP and each alignment to the old traceback,
// operation for operation. The table runs twice on the same verifier, so what
// any case leaves in the rows, the table or the masks meets every other case.
//
// Mutations planted in the verifier while this test was written, each failing
// it: the insertion neighbour without its +1, and the deletion neighbour with
// one; the walk's X and I tests swapped, and the walk reading score s's row
// for score s-1's; a row's unreached cells left unwritten, at score 0 and at
// the later scores (a pruned cell reads as whatever an earlier pair reached);
// Prepare forgetting whose masks peq holds when the read before never handed
// over.
func TestVerifierOutcomes(t *testing.T) {
	cases := outcomeCases()
	met := map[string]int{}
	var v Verifier
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			a, b, e := tc.read, tc.window, tc.e
			name := fmt.Sprintf("pass %d %s", pass, tc.name)
			want := DistanceDP(a, b)
			v.Prepare(a)

			finished, handed := v.Finished, v.HandedOver
			checkContract(t, &v, a, b, e, want)
			got := leftBy(&v, finished, handed, a, b, e, want <= e)
			if got != tc.want {
				t.Fatalf("%s: Distance: %s, want %s", name, got, tc.want)
			}

			v.Prepare(a) // Align meets the masks as Distance did: not yet built
			finished, handed = v.Finished, v.HandedOver
			al, ok := v.Align(b, e)
			old, oldOK := refAlign(a, b, e)
			if ok != oldOK || al.Distance != old.Distance || string(al.Ops) != string(old.Ops) {
				t.Fatalf("%s: Align = (%d, %s, %v), old Align (%d, %s, %v)\na=%q\nb=%q",
					name, al.Distance, al.CIGAR(), ok, old.Distance, old.CIGAR(), oldOK, a, b)
			}
			if got := leftBy(&v, finished, handed, a, b, e, ok); got != tc.want {
				t.Fatalf("%s: Align: %s, want %s", name, got, tc.want)
			}
			met[tc.want]++
		}
	}
	for _, o := range []string{wantHit, wantMiss, wantOver0, wantOver1, wantColumns, wantLengths} {
		if met[o] == 0 {
			t.Errorf("no case was %s", o)
		}
	}
	var unequal bool
	for _, tc := range cases {
		unequal = unequal || (len(tc.read) != len(tc.window) && tc.want == wantHit)
	}
	if !unequal {
		t.Error("no finished hit has m ≠ n")
	}
}

// leftBy names how the verifier's last call settled the pair, from what its
// counters gained since (finished, handed) and the call's ok.
func leftBy(v *Verifier, finished, handed int, a, b []byte, e int, ok bool) string {
	switch df, dh := v.Finished-finished, v.HandedOver-handed; {
	case df == 1 && dh == 0 && ok:
		return wantHit
	case df == 1 && dh == 0:
		return wantMiss
	case df == 0 && dh == 1 && e >= len(a):
		return wantColumns
	case df == 0 && dh == 1:
		// Score 0 holds one diagonal, so its reach is the common prefix.
		if pre := matchLen(a, b); 2*pre*(e+1) < len(a) {
			return wantOver0
		}
		return wantOver1
	case df == 0 && dh == 0:
		return wantLengths
	default:
		return fmt.Sprintf("counted %d finished and %d handed over for one pair", df, dh)
	}
}
