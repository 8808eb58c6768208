package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dna"
)

func TestDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "ACGT", 4},
		{"ACGT", "", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACGA", 1},
		{"ACGT", "AGT", 1},   // deletion
		{"ACGT", "ACCGT", 1}, // insertion
		{"KITTEN", "SITTING", 3},
		{"AAAA", "TTTT", 4},
		{"GATTACA", "GCATGCU", 4},
		{"ACGTACGTACGT", "ACGTACGTACGT", 0},
	}
	for _, c := range cases {
		if got := Distance([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := DistanceDP([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("DistanceDP(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := dna.RandomSeq(rng, 10+rng.Intn(200))
		b := dna.RandomSeq(rng, 10+rng.Intn(200))
		if Distance(a, b) != Distance(b, a) {
			t.Fatalf("asymmetric distance for %q vs %q", a, b)
		}
	}
}

func TestDistanceMatchesDPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(300)
		a := dna.RandomSeq(rng, n)
		k := rng.Intn(20)
		edits := dna.RandomEdits(rng, n, k, 0.4)
		b := dna.ApplyEdits(a, edits)
		want := DistanceDP(a, b)
		if got := Distance(a, b); got != want {
			t.Fatalf("Distance=%d DP=%d for case %d (n=%d k=%d)", got, want, i, n, k)
		}
	}
}

func TestDistanceLongSequences(t *testing.T) {
	// Exercise the multi-block path: >64, >128, >192 pattern rows.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{64, 65, 100, 128, 129, 150, 250, 300, 301} {
		a := dna.RandomSeq(rng, n)
		b := dna.MutateSubstitutions(rng, a, 5)
		if got, want := Distance(a, b), DistanceDP(a, b); got != want {
			t.Fatalf("n=%d: Distance=%d, DP=%d", n, got, want)
		}
	}
}

func TestDistanceUnequalLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		a := dna.RandomSeq(rng, 1+rng.Intn(120))
		b := dna.RandomSeq(rng, 1+rng.Intn(120))
		if got, want := Distance(a, b), DistanceDP(a, b); got != want {
			t.Fatalf("unequal lengths |a|=%d |b|=%d: Distance=%d, DP=%d", len(a), len(b), got, want)
		}
	}
}

func TestDistanceSubstitutionsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := dna.RandomSeq(rng, 100)
	for k := 0; k <= 10; k++ {
		b := dna.MutateSubstitutions(rng, a, k)
		if got := Distance(a, b); got > k {
			t.Fatalf("distance %d exceeds substitution count %d", got, k)
		}
	}
}

func TestDistanceTriangleQuick(t *testing.T) {
	f := func(ra, rb, rc []byte) bool {
		a := clampSeq(ra, 80)
		b := clampSeq(rb, 80)
		c := clampSeq(rc, 80)
		ab := Distance(a, b)
		bc := Distance(b, c)
		ac := Distance(a, c)
		return ac <= ab+bc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func clampSeq(raw []byte, maxLen int) []byte {
	n := len(raw)
	if n > maxLen {
		n = maxLen
	}
	seq := make([]byte, n)
	for i := 0; i < n; i++ {
		seq[i] = dna.Alphabet[int(raw[i])%4]
	}
	return seq
}

func TestDistanceBandedAgreesWithDP(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(150)
		a := dna.RandomSeq(rng, n)
		b := dna.ApplyEdits(a, dna.RandomEdits(rng, n, rng.Intn(12), 0.5))
		maxDist := rng.Intn(15)
		want := DistanceDP(a, b)
		got, ok := DistanceBanded(a, b, maxDist)
		if want <= maxDist {
			if !ok || got != want {
				t.Fatalf("banded=(%d,%v), want (%d,true); maxDist=%d", got, ok, want, maxDist)
			}
		} else if ok {
			t.Fatalf("banded accepted distance %d with maxDist=%d (true distance %d)", got, maxDist, want)
		}
	}
}

func TestDistanceBandedEdgeCases(t *testing.T) {
	if _, ok := DistanceBanded([]byte("ACGT"), []byte("ACGT"), -1); ok {
		t.Fatal("negative budget accepted")
	}
	if d, ok := DistanceBanded(nil, []byte("AC"), 2); !ok || d != 2 {
		t.Fatalf("empty a: (%d,%v)", d, ok)
	}
	if d, ok := DistanceBanded([]byte("AC"), nil, 2); !ok || d != 2 {
		t.Fatalf("empty b: (%d,%v)", d, ok)
	}
	if _, ok := DistanceBanded([]byte("AAAAAAAA"), []byte("A"), 3); ok {
		t.Fatal("length gap beyond band accepted")
	}
	if d, ok := DistanceBanded([]byte("ACGT"), []byte("ACGT"), 0); !ok || d != 0 {
		t.Fatalf("exact match with zero budget: (%d,%v)", d, ok)
	}
	if _, ok := DistanceBanded([]byte("ACGT"), []byte("ACGA"), 0); ok {
		t.Fatal("mismatch accepted with zero budget")
	}
}

func TestDistanceBandedEarlyExit(t *testing.T) {
	// Completely dissimilar sequences must be rejected, exercising the
	// row-minimum early exit.
	a := make([]byte, 200)
	b := make([]byte, 200)
	for i := range a {
		a[i], b[i] = 'A', 'T'
	}
	if _, ok := DistanceBanded(a, b, 10); ok {
		t.Fatal("banded accepted 200 mismatches with budget 10")
	}
}

func TestHammingDistance(t *testing.T) {
	if d := HammingDistance([]byte("ACGT"), []byte("ACGA")); d != 1 {
		t.Fatalf("HammingDistance = %d", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unequal lengths")
		}
	}()
	HammingDistance([]byte("A"), []byte("AB"))
}

func TestDistanceNHandling(t *testing.T) {
	// 'N' is an ordinary symbol for the ground truth: N==N matches, N!=A.
	if d := Distance([]byte("ACNT"), []byte("ACNT")); d != 0 {
		t.Fatalf("N should match N: %d", d)
	}
	if d := Distance([]byte("ACNT"), []byte("ACAT")); d != 1 {
		t.Fatalf("N vs A should cost 1: %d", d)
	}
}

func BenchmarkDistance100bp(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := dna.RandomSeq(rng, 100)
	y := dna.MutateSubstitutions(rng, x, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}
