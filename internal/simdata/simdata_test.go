package simdata

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/dna"
)

func TestSetRegistry(t *testing.T) {
	for name, p := range Sets {
		if p.ReadLen <= 0 || p.FarMax < p.FarMin || p.CloseFrac < 0 || p.CloseFrac > 1 {
			t.Errorf("set %s has implausible profile %+v", name, p)
		}
		if p.PaperPairs <= 0 {
			t.Errorf("set %s missing paper size", name)
		}
	}
	if _, err := Set("set1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Set("nope"); err == nil {
		t.Fatal("unknown set accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Sets["set3"]
	a := Generate(p, 7, 50)
	b := Generate(p, 7, 50)
	for i := range a {
		if string(a[i].Read) != string(b[i].Read) || string(a[i].Ref) != string(b[i].Ref) {
			t.Fatalf("generation not deterministic at pair %d", i)
		}
	}
	c := Generate(p, 8, 50)
	same := 0
	for i := range a {
		if string(a[i].Read) == string(c[i].Read) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateGeometry(t *testing.T) {
	for _, name := range []string{"set1", "set6", "set10", "bwamem"} {
		p := Sets[name]
		for _, pc := range Generate(p, 1, 100) {
			if len(pc.Read) != p.ReadLen || len(pc.Ref) != p.ReadLen {
				t.Fatalf("%s produced lengths %d/%d, want %d", name, len(pc.Read), len(pc.Ref), p.ReadLen)
			}
		}
	}
}

func TestGenerateEditMixture(t *testing.T) {
	p := Sets["set3"]
	cases := Generate(p, 2, 2000)
	within := 0
	undefined := 0
	for _, pc := range cases {
		if pc.Undefined {
			undefined++
			continue
		}
		if align.Distance(pc.Read, pc.Ref) <= p.SeedE {
			within++
		}
	}
	frac := float64(within) / float64(len(cases))
	// Paper Table S.2: ~1.9% of Set 3 is within e=5. Generator should land
	// in the single-digit percent range.
	if frac < 0.005 || frac > 0.12 {
		t.Errorf("Set 3 within-threshold fraction %.3f outside the plausible band", frac)
	}
}

func TestGenerateHighEditProfileIsFarther(t *testing.T) {
	low := Generate(Sets["set1"], 3, 300)
	high := Generate(Sets["set4"], 3, 300)
	avg := func(cases []PairCase) float64 {
		s := 0.0
		for _, pc := range cases {
			s += float64(align.Distance(pc.Read, pc.Ref))
		}
		return s / float64(len(cases))
	}
	if avg(high) <= avg(low) {
		t.Error("high-edit profile should have larger mean distance than low-edit")
	}
}

func TestGenerateUndefinedRate(t *testing.T) {
	p := Sets["set12"] // 15.9% undefined, the highest in the paper
	cases := Generate(p, 4, 3000)
	n := 0
	for _, pc := range cases {
		if pc.Undefined {
			n++
			if !dna.HasN(pc.Read) && !dna.HasN(pc.Ref) {
				t.Fatal("undefined pair without an N")
			}
		}
	}
	frac := float64(n) / float64(len(cases))
	if frac < 0.10 || frac > 0.22 {
		t.Errorf("Set 12 undefined fraction %.3f, paper has 0.159", frac)
	}
}

func TestSeededCandidatesShareExactRegion(t *testing.T) {
	p := Sets["set1"]
	cases := Generate(p, 5, 100)
	withSeed := 0
	for _, pc := range cases {
		if pc.Undefined {
			continue
		}
		// Look for a 20bp exact shared window at the same offset, the
		// signature of pigeonhole seeding.
		for off := 0; off+20 <= len(pc.Read); off++ {
			if string(pc.Read[off:off+20]) == string(pc.Ref[off:off+20]) {
				withSeed++
				break
			}
		}
	}
	if withSeed < 30 {
		t.Errorf("only %d/100 pairs share an exact window; seeded candidates should", withSeed)
	}
}

func TestToEnginePairs(t *testing.T) {
	cases := Generate(Sets["set1"], 6, 10)
	pairs := ToEnginePairs(cases)
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for i := range pairs {
		if &pairs[i].Read[0] != &cases[i].Read[0] {
			t.Fatal("conversion should not copy sequences")
		}
	}
}

func TestGenomeGeneration(t *testing.T) {
	cfg := DefaultGenomeConfig(200_000)
	g := Genome(cfg)
	if len(g) != 200_000 {
		t.Fatalf("genome length %d", len(g))
	}
	// Determinism.
	g2 := Genome(cfg)
	if string(g) != string(g2) {
		t.Fatal("genome generation not deterministic")
	}
	// Composition: mostly ACGT with a trace of N.
	counts := map[byte]int{}
	for _, b := range g {
		counts[b]++
	}
	if counts['N'] == 0 {
		t.Error("no assembly gaps planted")
	}
	for _, b := range []byte("ACGT") {
		if counts[b] < len(g)/8 {
			t.Errorf("base %c suspiciously rare: %d", b, counts[b])
		}
	}
}

func TestGenomeHasRepeats(t *testing.T) {
	g := Genome(DefaultGenomeConfig(300_000))
	// Count 24-mers occurring more than once; a repeat-rich genome has many.
	seen := map[string]int{}
	for i := 0; i+24 <= len(g); i += 24 {
		seen[string(g[i:i+24])]++
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups < 10 {
		t.Errorf("only %d duplicated 24-mers; repeats not planted", dups)
	}
}

func TestSimulateReads(t *testing.T) {
	g := Genome(DefaultGenomeConfig(100_000))
	reads, err := SimulateReads(g, Illumina100, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 200 {
		t.Fatalf("got %d reads", len(reads))
	}
	nearOrigin := 0
	for _, r := range reads {
		if len(r.Seq) != 100 {
			t.Fatalf("read length %d", len(r.Seq))
		}
		if r.TruePos < 0 || r.TruePos+100 > len(g) {
			t.Fatalf("true position %d out of range", r.TruePos)
		}
		seg := g[r.TruePos : r.TruePos+100]
		if d := align.Distance(r.Seq, seg); d <= 8 {
			nearOrigin++
		}
	}
	if nearOrigin < 180 {
		t.Errorf("only %d/200 reads near their origin; error rates too high", nearOrigin)
	}
}

func TestSimulateReadsRichDeletionProfile(t *testing.T) {
	g := Genome(DefaultGenomeConfig(200_000))
	reads, err := SimulateReads(g, SimSet1, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	// With a 2% deletion rate a 300bp read should usually carry deletions:
	// its distance to the origin window is dominated by indels.
	withEdits := 0
	for _, r := range reads {
		seg := g[r.TruePos : r.TruePos+300]
		if align.Distance(r.Seq, seg) >= 3 {
			withEdits++
		}
	}
	if withEdits < 80 {
		t.Errorf("rich-deletion profile produced only %d/100 edited reads", withEdits)
	}
}

func TestSimulateReadsErrors(t *testing.T) {
	if _, err := SimulateReads([]byte("ACGT"), Illumina100, 1, 1); err == nil {
		t.Fatal("genome shorter than read accepted")
	}
	// A genome of exactly one read has no start position to draw, and a
	// negative count no slice to fill: both are errors, not panics.
	g := Genome(DefaultGenomeConfig(Illumina100.Length))
	if _, err := SimulateReads(g, Illumina100, 1, 1); err == nil {
		t.Fatal("genome no longer than the read accepted")
	}
	g = Genome(DefaultGenomeConfig(1_000))
	if _, err := SimulateReads(g, Illumina100, -3, 1); err == nil {
		t.Fatal("negative read count accepted")
	}
	if _, err := SimulatePairs(g, Illumina100, -3, 400, 40, 1); err == nil {
		t.Fatal("negative pair count accepted")
	}
}

func TestSimulatePairs(t *testing.T) {
	g := Genome(DefaultGenomeConfig(100_000))
	pairs, err := SimulatePairs(g, Illumina100, 200, 400, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 200 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	nearMean := 0
	for i, p := range pairs {
		if len(p.R1.Seq) != 100 || len(p.R2.Seq) != 100 {
			t.Fatalf("pair %d mate lengths %d/%d", i, len(p.R1.Seq), len(p.R2.Seq))
		}
		if p.Insert != p.R2.TruePos+100-p.R1.TruePos {
			t.Fatalf("pair %d insert %d inconsistent with mate positions %d/%d",
				i, p.Insert, p.R1.TruePos, p.R2.TruePos)
		}
		if p.Insert >= 400-3*40 && p.Insert <= 400+3*40 {
			nearMean++
		}
		// R2 is reverse-complement oriented: its RC must be close to the
		// forward window at its TruePos.
		rc := dna.ReverseComplement(p.R2.Seq)
		seg := g[p.R2.TruePos : p.R2.TruePos+100]
		if align.Distance(rc, seg) > 12 {
			t.Fatalf("pair %d R2 too far from its origin window", i)
		}
	}
	if nearMean < 195 { // ~99.7% within 3 sigma
		t.Errorf("only %d/200 inserts within 3 sigma of the mean", nearMean)
	}
	// Determinism per seed.
	again, err := SimulatePairs(g, Illumina100, 200, 400, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if string(again[i].R1.Seq) != string(pairs[i].R1.Seq) ||
			string(again[i].R2.Seq) != string(pairs[i].R2.Seq) {
			t.Fatalf("pair %d not deterministic", i)
		}
	}
	if _, err := SimulatePairs([]byte("ACGT"), Illumina100, 1, 400, 40, 1); err == nil {
		t.Fatal("genome shorter than read accepted")
	}
	if _, err := SimulatePairs(g, Illumina100, 1, 50, 10, 1); err == nil {
		t.Fatal("mean insert below read length accepted")
	}
}

// streamToBytes collects a StreamGenome run (copying each reused chunk).
func streamToBytes(t *testing.T, cfg GenomeConfig) []byte {
	t.Helper()
	var g []byte
	if err := StreamGenome(cfg, func(chunk []byte) error {
		g = append(g, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamGenome holds the chunked generator to Genome's profile:
// deterministic, exact length (including lengths that do not divide the
// chunk size), ACGT+N composition, and planted repeats.
func TestStreamGenome(t *testing.T) {
	cfg := DefaultGenomeConfig(2_500_001) // spans 3 chunks, ragged tail
	g := streamToBytes(t, cfg)
	if len(g) != cfg.Length {
		t.Fatalf("streamed genome length %d, want %d", len(g), cfg.Length)
	}
	if g2 := streamToBytes(t, cfg); !strings.HasPrefix(string(g), string(g2)) || len(g) != len(g2) {
		t.Fatal("streamed generation not deterministic")
	}
	counts := map[byte]int{}
	for _, b := range g {
		counts[b]++
	}
	if counts['N'] == 0 {
		t.Error("no assembly gaps planted")
	}
	for _, b := range []byte("ACGT") {
		if counts[b] < len(g)/8 {
			t.Errorf("base %c suspiciously rare: %d", b, counts[b])
		}
	}
	seen := map[string]int{}
	for i := 0; i+24 <= len(g); i += 24 {
		seen[string(g[i:i+24])]++
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups < 10 {
		t.Errorf("only %d duplicated 24-mers; repeats not planted", dups)
	}
}

// TestStreamGenomeEmitError: a failing sink stops generation immediately.
func TestStreamGenomeEmitError(t *testing.T) {
	want := fmt.Errorf("sink full")
	calls := 0
	err := StreamGenome(DefaultGenomeConfig(5_000_000), func([]byte) error {
		calls++
		return want
	})
	if err != want {
		t.Fatalf("got %v, want the sink's error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing", calls)
	}
}
