package mapper

import (
	"slices"

	"repro/internal/gkgpu"
	"repro/internal/metrics"
	"repro/internal/par"
)

// probe is one k-mer probe of the index in flight through a seeder's stages:
// the packed seed, the read offset it was cut at, and a span of the index's
// keys/pos arrays — the bucket's bounds after stage B, the seed's equal range
// after stage D.
type probe struct {
	key    uint32
	off    int
	lo, hi int
}

// span names one query's candidates: arena[lo:hi] of worker w's seeder.
type span struct {
	w      int
	lo, hi int
}

// seeder is one pool worker's pigeonhole seeding, living as long as the
// worker's verifier does: e+1 seeds at evenly spread read offsets, each
// fanned out over the index's step consecutive offsets (the index holds one
// in every step contig-relative window starts, so whatever phase the true
// alignment has exactly one probe of the fan lines up with a sampled window —
// found whenever the k+step-1 bases around the seed are error-free; at step 1
// the fan is the single probe), each hit proposing the window that places the
// read at that offset. A proposed window that runs past either end of the
// hit's contig — into a neighbouring contig of the concatenated sequence
// included — is dropped here, so a cross-boundary candidate never reaches the
// filter or verification; a query's duplicates are merged.
//
// A probe is three dependent cache misses (see Index), so the seeder never
// walks one probe to its end before starting the next: seedBlock takes every
// probe of a block of queries through one stage before any enters the next,
// which leaves each stage a run of independent loads the memory system
// overlaps. The candidates land in the worker's own arena, reused slab after
// slab, so the steady state allocates nothing.
type seeder struct {
	idx     *Index
	readLen int
	offs    []int // read offset of each probe of one query, in probe order

	probes []probe // the block's probes in flight, query by query
	ends   []int   // ends[i]: end in probes of the block's i-th query
	arena  []int64 // this worker's candidate window starts of the current slab
	warm   int64   // keeps the line-touching loads of stages C and E alive
}

// newSeeder lays out the probes of one query at threshold e.
func newSeeder(idx *Index, readLen, e int) seeder {
	k := idx.k
	nSeeds := max(1, min(e+1, readLen/k))
	s := seeder{idx: idx, readLen: readLen}
	for i := 0; i < nSeeds; i++ {
		off := 0
		if nSeeds > 1 {
			off = i * (readLen - k) / (nSeeds - 1)
		}
		for o := off; o < off+idx.step && o+k <= readLen; o++ {
			s.offs = append(s.offs, o)
		}
	}
	return s
}

// seedBlock seeds queries [qlo, qhi) of a slab, staged: it appends each
// query's candidate window starts — ascending, distinct — to the arena and
// records where in spans[q], as worker w's. The block's probes count into
// metrics.SeedLookups once, here, so no atomic sits between dependent misses;
// the total is what one Lookup per probe counts.
//
//gk:noalloc
func (s *seeder) seedBlock(seqs [][]byte, qlo, qhi int, spans []span, w int) {
	x := s.idx
	k := x.k
	metrics.SeedLookups.Add(uint64((qhi - qlo) * len(s.offs)))

	// A: pack every probe's key. A seed holding an 'N' is dropped here, as
	// Lookup drops it.
	s.probes, s.ends = s.probes[:0], s.ends[:0]
	for _, seq := range seqs[qlo:qhi] {
		for _, o := range s.offs {
			if key, ok := seedKey(seq[o : o+k]); ok {
				s.probes = append(s.probes, probe{key: key, off: o}) //gk:allow noalloc: block scratch, grows to the largest block once
			}
		}
		s.ends = append(s.ends, len(s.probes)) //gk:allow noalloc: block scratch, grows to the largest block once
	}
	probes := s.probes

	// B: every probe's bucket bounds — independent loads, so their misses
	// overlap instead of queueing behind one another.
	for i := range probes {
		p := &probes[i]
		p.lo, p.hi = x.bucketBounds(p.key)
	}
	// C: touch the line each bucket's keys start on, so the searches of D hit.
	var warm int64
	for i := range probes {
		if p := &probes[i]; p.lo < p.hi {
			warm += int64(x.keys[p.lo])
		}
	}
	// D: the equal-range search; the span becomes the seed's hit list.
	for i := range probes {
		p := &probes[i]
		p.lo, p.hi = x.equalRange(p.key, p.lo, p.hi)
	}
	// E: touch the line each hit list starts on.
	for i := range probes {
		if p := &probes[i]; p.lo < p.hi {
			warm += x.pos[p.lo]
		}
	}
	s.warm += warm

	// F: gather query by query — each hit proposes the window placing the
	// read at its probe's offset; WindowContig keeps it only when it lies
	// wholly inside one contig. Every probe's run arrives ascending; the
	// query's span is sorted and de-duplicated in place.
	first := 0
	for i, end := range s.ends {
		lo := len(s.arena)
		for _, p := range probes[first:end] {
			for _, hit := range x.pos[p.lo:p.hi] {
				if pos := hit - int64(p.off); x.ref.WindowContig(int(pos), s.readLen) >= 0 {
					s.arena = append(s.arena, pos) //gk:allow noalloc: the worker's arena, reused across slabs; grows to the largest slab once
				}
			}
		}
		first = end
		if len(s.arena)-lo > 1 {
			got := s.arena[lo:]
			slices.Sort(got)                                //gk:allow noalloc: sorts []int64 in place
			s.arena = s.arena[:lo+len(slices.Compact(got))] //gk:allow noalloc: de-duplicates in place
		}
		spans[qlo+i] = span{w: w, lo: lo, hi: len(s.arena)}
	}
}

// seed seeds a slab's queries over the run's workers and returns the slab's
// candidates in query order, each query's ascending — the one list the filter
// call and the verify loop both read, valid until the next call. Which worker
// claims which block varies from run to run; the list does not, because it is
// laid out from the per-query spans.
func (r *run) seed(seqs [][]byte) []gkgpu.Candidate {
	r.spans = slices.Grow(r.spans[:0], len(seqs))[:len(seqs)]
	for w := range r.workers {
		r.workers[w].seeder.arena = r.workers[w].seeder.arena[:0]
	}
	const grain = 8 // queries per claim off the pool's cursor, and per staged block
	par.For(len(r.workers), len(seqs), grain, func(w, lo, hi int) {
		// A lone worker is handed the whole slab at once; it is cut as the
		// pool would have cut it, so the probes in flight stay a few cache
		// lines' worth at any width and the block scratch never grows with
		// the slab.
		for ; lo < hi; lo += grain {
			r.workers[w].seeder.seedBlock(seqs, lo, min(lo+grain, hi), r.spans, w)
		}
	})
	total := 0
	for _, sp := range r.spans {
		total += sp.hi - sp.lo
	}
	r.cands = slices.Grow(r.cands[:0], total)
	for qi, sp := range r.spans {
		for _, pos := range r.workers[sp.w].seeder.arena[sp.lo:sp.hi] {
			r.cands = append(r.cands, gkgpu.Candidate{ReadID: int64(qi), Pos: pos})
		}
	}
	return r.cands
}
