package align

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dna"
)

func TestAlignExactMatch(t *testing.T) {
	a := []byte("ACGTACGT")
	al, ok := Align(a, a, 2)
	if !ok || al.Distance != 0 {
		t.Fatalf("exact: %+v ok=%v", al, ok)
	}
	if al.CIGAR() != "8=" {
		t.Fatalf("CIGAR = %s", al.CIGAR())
	}
	if al.CIGARCompat() != "8M" {
		t.Fatalf("CIGARCompat = %s", al.CIGARCompat())
	}
}

func TestAlignKnownCases(t *testing.T) {
	cases := []struct {
		a, b  string
		dist  int
		cigar string
	}{
		{"ACGT", "AGGT", 1, "1=1X2="},
		{"ACGT", "AGT", 1, "1=1I2="},
		{"AGT", "ACGT", 1, "1=1D2="},
		{"ACGT", "ACGTT", 1, "3=1D1="}, // ties may resolve to any optimal path
		{"ACGTT", "ACGT", 1, "3=1I1="},
	}
	for _, c := range cases {
		al, ok := Align([]byte(c.a), []byte(c.b), 3)
		if !ok {
			t.Fatalf("Align(%q,%q) failed", c.a, c.b)
		}
		if al.Distance != c.dist {
			t.Errorf("Align(%q,%q) distance %d, want %d", c.a, c.b, al.Distance, c.dist)
		}
		if got := al.CIGAR(); got != c.cigar {
			t.Errorf("Align(%q,%q) CIGAR %s, want %s", c.a, c.b, got, c.cigar)
		}
	}
}

func TestAlignDistanceAgreesWithDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(120)
		a := dna.RandomSeq(rng, n)
		b := dna.ApplyEdits(a, dna.RandomEdits(rng, n, rng.Intn(8), 0.5))
		want := DistanceDP(a, b)
		maxDist := 10
		al, ok := Align(a, b, maxDist)
		if want <= maxDist {
			if !ok || al.Distance != want {
				t.Fatalf("trial %d: Align=(%d,%v), DP=%d", trial, al.Distance, ok, want)
			}
		} else if ok {
			t.Fatalf("trial %d: Align accepted distance %d beyond budget", trial, al.Distance)
		}
	}
}

func TestAlignOpsReconstructSequences(t *testing.T) {
	// Replaying the traceback ops over the read must consume exactly the
	// read and the reference, and the op classes must match reality.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 30 + rng.Intn(100)
		a := dna.RandomSeq(rng, n)
		b := dna.ApplyEdits(a, dna.RandomEdits(rng, n, rng.Intn(6), 0.6))
		al, ok := Align(a, b, 8)
		if !ok {
			continue
		}
		out, edits, legal := replayOps(a, b, al.Ops)
		if !legal || !bytes.Equal(out, b) {
			t.Fatalf("trial %d: ops %s do not replay the read into the reference\na=%q\nb=%q", trial, al.CIGAR(), a, b)
		}
		if edits != al.Distance {
			t.Fatalf("trial %d: ops imply %d edits, distance says %d", trial, edits, al.Distance)
		}
	}
}

func TestAlignRejections(t *testing.T) {
	if _, ok := Align([]byte("AAAA"), []byte("TTTT"), 2); ok {
		t.Fatal("4 mismatches accepted with budget 2")
	}
	if _, ok := Align([]byte("AAAAAAA"), []byte("A"), 3); ok {
		t.Fatal("length gap beyond band accepted")
	}
	if _, ok := Align([]byte("ACGT"), []byte("ACGT"), -1); ok {
		t.Fatal("negative budget accepted")
	}
}

func TestAlignEmptyInputs(t *testing.T) {
	al, ok := Align(nil, []byte("ACG"), 3)
	if !ok || al.Distance != 3 || al.CIGAR() != "3D" {
		t.Fatalf("empty read: %+v ok=%v", al, ok)
	}
	al, ok = Align([]byte("ACG"), nil, 3)
	if !ok || al.Distance != 3 || al.CIGAR() != "3I" {
		t.Fatalf("empty ref: %+v ok=%v", al, ok)
	}
	al, ok = Align(nil, nil, 0)
	if !ok || al.Distance != 0 || al.CIGAR() != "*" {
		t.Fatalf("empty both: %+v ok=%v", al, ok)
	}
}
