package mapper

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/lint"
	"repro/internal/metrics"
)

const seedTestReadLen = 64

// seedTestReference is a four-contig reference built to reach every branch
// of seeding: plain sequence, a tandem repeat whose k-mers each occur about
// ninety times, a run of undefined bases, and a contig barely longer than a
// read.
func seedTestReference(t testing.TB, rng *rand.Rand) *Reference {
	t.Helper()
	unit := dna.RandomSeq(rng, 37)
	chrB := dna.RandomSeq(rng, 400)
	chrB = append(chrB, bytes.Repeat(unit, 90)...)
	chrB = append(chrB, dna.RandomSeq(rng, 400)...)
	chrC := dna.RandomSeq(rng, 2500)
	copy(chrC[1200:], "NNNNNNNNNN")
	r, err := NewReference([]dna.Record{
		{Name: "chrA", Seq: dna.RandomSeq(rng, 3000)},
		{Name: "chrB", Seq: chrB},
		{Name: "chrC", Seq: chrC},
		{Name: "chrD", Seq: dna.RandomSeq(rng, seedTestReadLen+9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// seedTestReads draws the reads the seeding oracle needs from r: both ends of
// contigs, windows across both kinds of junction, undefined bases inside one
// seed and inside every seed, sequence the reference does not hold, the
// repeat, and erroneous and clean reads from everywhere.
func seedTestReads(rng *rand.Rand, r *Reference) [][]byte {
	const L = seedTestReadLen
	cut := func(contig, at int) []byte {
		return append([]byte(nil), r.ContigSeq(contig)[at:at+L]...)
	}
	end := func(contig int) int { return r.Contig(contig).Len - L }
	seq := r.Seq()
	junction := func(contig, before int) []byte { // before bases of contig, the rest of the next one
		at := r.Contig(contig).End() - before
		return append([]byte(nil), seq[at:at+L]...)
	}
	reads := [][]byte{
		cut(0, 0), cut(0, end(0)), cut(0, 2), cut(0, end(0)-3),
		cut(3, 0), cut(3, end(3)),
		junction(0, 30), junction(0, 5), junction(1, 47), junction(2, L-1),
		cut(1, 400+37*10), cut(1, 400+37*40+11), // inside the repeat
		cut(2, 1180), // over the reference's own N run
		dna.RandomSeq(rng, L), dna.RandomSeq(rng, L), dna.RandomSeq(rng, L),
	}
	oneN := cut(0, 500)
	oneN[3] = 'N'
	everyN := cut(0, 900)
	for i := 2; i < L; i += 6 {
		everyN[i] = 'N'
	}
	reads = append(reads, oneN, everyN)
	for i := 0; i < 24; i++ {
		c := rng.Intn(3)
		read := cut(c, rng.Intn(end(c)+1))
		for s := i % 4; s > 0; s-- {
			read[rng.Intn(L)] = "ACGT"[rng.Intn(4)]
		}
		reads = append(reads, read)
	}
	return reads
}

// probeLoopCandidates is the oracle: seeding as one probe at a time through
// the public accessors — Lookup, WindowContig, sort, de-duplicate — the loop
// the mapper ran before the seeder and the one bench/probes.go replays. seen
// tallies what the walk met, so the test can show its cases are not vacuous.
func probeLoopCandidates(idx *Index, read []byte, e int, seen *seedingSeen) []int64 {
	L, k, step := len(read), idx.K(), idx.Step()
	nSeeds := e + 1
	if maxSeeds := L / k; nSeeds > maxSeeds {
		nSeeds = maxSeeds
	}
	if nSeeds < 1 {
		nSeeds = 1
	}
	var out []int64
	for s := 0; s < nSeeds; s++ {
		off := 0
		if nSeeds > 1 {
			off = s * (L - k) / (nSeeds - 1)
		}
		for o := off; o < off+step && o+k <= L; o++ {
			seen.probes++
			hits := idx.Lookup(read[o : o+k])
			seen.maxHits = max(seen.maxHits, len(hits))
			for _, hit := range hits {
				pos := hit - int64(o)
				if idx.Reference().WindowContig(int(pos), L) < 0 {
					seen.offContig++
					continue
				}
				out = append(out, pos)
			}
		}
	}
	if len(out) == 0 {
		seen.empty++
		return nil
	}
	slices.Sort(out)
	dedup := out[:1]
	for _, p := range out[1:] {
		if p != dedup[len(dedup)-1] {
			dedup = append(dedup, p)
		} else {
			seen.duplicates++
		}
	}
	return dedup
}

type seedingSeen struct {
	probes, maxHits, offContig, duplicates, empty int
}

// seedCase is one (k, step, e) point of the oracle's grid: the slab as the
// mapper orients it on both strands, and what the probe loop says each of its
// queries seeds to.
type seedCase struct {
	k, step, e int
	m          *Mapper
	seqs       [][]byte
	want       [][]int64
}

func seedCases(t testing.TB) []seedCase {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	ref := seedTestReference(t, rng)
	reads := seedTestReads(rng, ref)
	var cases []seedCase
	var seen seedingSeen
	for _, k := range []int{8, 11, 13, 16} {
		for _, step := range []int{1, 2, 3, 5} {
			seedCap := seedTestReadLen/k + 3
			m, err := NewFromReference(ref, Config{ReadLen: seedTestReadLen, MaxE: seedCap,
				SeedLen: k, SeedStep: step, BothStrands: true})
			if err != nil {
				t.Fatal(err)
			}
			sl := m.newSlab(len(reads), m.queriesPerRead())
			for i, read := range reads {
				m.orient(sl, i, read)
			}
			for _, e := range []int{0, 1, 5, seedCap} {
				c := seedCase{k: k, step: step, e: e, m: m, seqs: sl.seqs}
				for _, q := range sl.seqs {
					c.want = append(c.want, probeLoopCandidates(m.idx, q, e, &seen))
				}
				cases = append(cases, c)
			}
		}
	}
	if seen.maxHits <= 64 || seen.offContig == 0 || seen.duplicates == 0 || seen.empty == 0 {
		t.Fatalf("seeding cases are vacuous: %+v", seen)
	}
	return cases
}

func (c seedCase) String() string { return fmt.Sprintf("k=%d step=%d e=%d", c.k, c.step, c.e) }

// blockFunc is seeder.seedBlock's shape, so a mutant can stand in for it.
type blockFunc func(s *seeder, seqs [][]byte, qlo, qhi int, spans []span, w int)

// checkBlocks drives block over every case's slab in blocks of 1, 7, 8 and
// the whole slab, and reports the first query whose span is not the probe
// loop's.
func checkBlocks(cases []seedCase, block blockFunc) error {
	for _, c := range cases {
		nq := len(c.seqs)
		for _, size := range []int{1, 7, 8, nq} {
			const w = 3
			s := newSeeder(c.m.idx, seedTestReadLen, c.e)
			spans := make([]span, nq)
			for lo := 0; lo < nq; lo += size {
				block(&s, c.seqs, lo, min(lo+size, nq), spans, w)
			}
			for q, sp := range spans {
				if sp.w != w || sp.lo > sp.hi || sp.hi > len(s.arena) {
					return fmt.Errorf("%v block=%d query %d: span %+v of a %d-entry arena", c, size, q, sp, len(s.arena))
				}
				if got := s.arena[sp.lo:sp.hi]; !slices.Equal(got, c.want[q]) {
					return fmt.Errorf("%v block=%d query %d: seeded %v, probe loop %v", c, size, q, got, c.want[q])
				}
			}
		}
	}
	return nil
}

// TestSeederMatchesProbeLoop is the seeding oracle: the staged seeder must
// propose, query for query, exactly what the one-probe-at-a-time loop does —
// over seed lengths, steps and thresholds up to the seed cap, block sizes on
// both sides of the pool's grain, both strands, and one worker or eight —
// and the oracle must be sharp enough to fail five planted mistakes.
func TestSeederMatchesProbeLoop(t *testing.T) {
	cases := seedCases(t)
	if err := checkBlocks(cases, (*seeder).seedBlock); err != nil {
		t.Fatal(err)
	}

	// The whole-slab path, as mapSlab calls it: the candidate list is the
	// queries' spans in query order whichever worker seeded which block, and
	// a second slab through the same run finds the arenas reset.
	for _, c := range cases {
		var want []gkgpu.Candidate
		for q, positions := range c.want {
			for _, pos := range positions {
				want = append(want, gkgpu.Candidate{ReadID: int64(q), Pos: pos})
			}
		}
		for _, workers := range []int{1, 8} {
			m := *c.m
			m.cfg.StreamWorkers = workers
			r := m.newRun(c.e)
			for slab := 0; slab < 2; slab++ {
				if got := r.seed(c.seqs); !slices.Equal(got, want) {
					t.Fatalf("%v workers=%d slab %d: candidate list differs from the probe loop's (%d vs %d candidates)",
						c, workers, slab, len(got), len(want))
				}
			}
		}
	}

	if err := checkBlocks(cases, mutantSeedBlock(noMutation)); err != nil {
		t.Fatalf("the test's own copy of the staged loop is not the seeder's: %v", err)
	}
	for mutation := noMutation + 1; mutation < nMutations; mutation++ {
		err := checkBlocks(cases, mutantSeedBlock(mutation))
		if err == nil {
			t.Errorf("mutation %d of the staged loop passes the oracle", mutation)
		}
		t.Logf("mutation %d caught: %v", mutation, err)
	}
}

// The planted mistakes: each is one a staged rewrite of the probe loop can
// make and a weaker oracle would let through.
const (
	noMutation        = iota
	wrongOffset       // a hit is placed by the seed's offset, not its fan probe's
	skippedDedup      // a query's span keeps its duplicates
	neighbourBucket   // the bounds loaded are the next bucket's
	droppedLastProbe  // the block's last probe never leaves stage A
	missingContigTest // a window running off its contig is proposed
	nMutations
)

// mutantSeedBlock is seeder.seedBlock with one mistake planted (or none, to
// show the copy is faithful).
func mutantSeedBlock(mutation int) blockFunc {
	return func(s *seeder, seqs [][]byte, qlo, qhi int, spans []span, w int) {
		x := s.idx
		k := x.k
		s.probes, s.ends = s.probes[:0], s.ends[:0]
		for _, seq := range seqs[qlo:qhi] {
			base := 0 // the offset of the seed whose fan o belongs to: fans never touch
			for i, o := range s.offs {
				if i == 0 || s.offs[i-1] != o-1 {
					base = o
				}
				if key, ok := seedKey(seq[o : o+k]); ok {
					if mutation == wrongOffset {
						o = base
					}
					s.probes = append(s.probes, probe{key: key, off: o})
				}
			}
			s.ends = append(s.ends, len(s.probes))
		}
		staged := s.probes
		if mutation == droppedLastProbe && len(staged) > 0 {
			staged = staged[:len(staged)-1]
		}
		for i := range staged {
			p := &staged[i]
			key := p.key
			if mutation == neighbourBucket {
				key = (key + 1<<x.shift) & (1<<(2*k) - 1)
			}
			p.lo, p.hi = x.bucketBounds(key)
		}
		for i := range staged {
			p := &staged[i]
			p.lo, p.hi = x.equalRange(p.key, p.lo, p.hi)
		}
		first := 0
		for i, end := range s.ends {
			lo := len(s.arena)
			for _, p := range s.probes[first:end] {
				for _, hit := range x.pos[p.lo:p.hi] {
					pos := hit - int64(p.off)
					if mutation == missingContigTest && pos >= 0 && int(pos)+s.readLen <= len(x.seq) ||
						x.ref.WindowContig(int(pos), s.readLen) >= 0 {
						s.arena = append(s.arena, pos)
					}
				}
			}
			first = end
			got := s.arena[lo:]
			slices.Sort(got)
			if mutation != skippedDedup {
				got = slices.Compact(got)
			}
			s.arena = s.arena[:lo+len(got)]
			spans[qlo+i] = span{w: w, lo: lo, hi: len(s.arena)}
		}
	}
}

// TestSeedBlockZeroAllocs is the seeder's steady-state guard: once a first
// slab has sized the block scratch and the arena, seeding a slab allocates
// nothing. Runtime guard and static analyzer must cover the same functions.
func TestSeedBlockZeroAllocs(t *testing.T) {
	for _, fn := range []string{"seeder.seedBlock", "seedKey", "Index.bucketBounds", "Index.equalRange"} {
		if !lint.IsNoAlloc("repro/internal/mapper", fn) {
			t.Fatalf("%s is not in lint.NoAllocRegistry; static and runtime guards have drifted", fn)
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	g := testGenome(100_000)
	seqs := simulatedSeqs(t, g, 200)
	idx, err := NewIndex(g, DefaultSeedLen)
	if err != nil {
		t.Fatal(err)
	}
	s := newSeeder(idx, 100, 5)
	spans := make([]span, len(seqs))
	seedSlab := func() {
		s.arena = s.arena[:0]
		for lo := 0; lo < len(seqs); lo += 8 {
			s.seedBlock(seqs, lo, min(lo+8, len(seqs)), spans, 0)
		}
	}
	seedSlab()
	if len(s.arena) == 0 {
		t.Fatal("nothing seeded; the guard would be vacuous")
	}
	if allocs := testing.AllocsPerRun(20, seedSlab); allocs != 0 {
		t.Fatalf("seeding a second slab allocated %.1f times, want 0", allocs)
	}
}

// TestSeedingCountsProbesAndLocates: the seeder and the verify loop count
// into the package counters a block at a time, and the totals must still be
// what one count per probe and per verified candidate gives — while a direct
// Lookup or Locate still counts one.
func TestSeedingCountsProbesAndLocates(t *testing.T) {
	g := testGenome(120_000)
	seqs := simulatedSeqs(t, g, 150)
	const e = 4
	m, err := New(g, Config{ReadLen: 100, MaxE: 5, SeedStep: 2, BothStrands: true, StreamWorkers: 3, MaxReadsPerBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	var seen seedingSeen
	for _, read := range seqs {
		probeLoopCandidates(m.idx, read, e, &seen)
		probeLoopCandidates(m.idx, dna.ReverseComplement(read), e, &seen)
	}

	lookups, locates := metrics.SeedLookups.Load(), metrics.ContigLocates.Load()
	_, st, err := m.MapReads(seqs, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.SeedLookups.Load() - lookups; got != uint64(seen.probes) {
		t.Errorf("MapReads counted %d seed lookups, the probe loop makes %d", got, seen.probes)
	}
	if got := metrics.ContigLocates.Load() - locates; got != uint64(st.VerificationPairs) || got == 0 {
		t.Errorf("MapReads counted %d contig locates for %d verified candidates", got, st.VerificationPairs)
	}

	lookups, locates = metrics.SeedLookups.Load(), metrics.ContigLocates.Load()
	m.idx.Lookup(seqs[0][:m.idx.K()])
	m.ref.Locate(100)
	if metrics.SeedLookups.Load()-lookups != 1 || metrics.ContigLocates.Load()-locates != 1 {
		t.Errorf("one Lookup and one Locate counted %d and %d",
			metrics.SeedLookups.Load()-lookups, metrics.ContigLocates.Load()-locates)
	}
}
