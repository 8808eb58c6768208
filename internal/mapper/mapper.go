package mapper

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/metrics"
	"repro/internal/par"
)

// PreFilter is the pre-alignment filtering hook between seeding and
// verification, in the shape of the paper's mrFAST integration (Section
// 3.5): the filter holds the encoded reference (in unified memory on the
// device engine) and candidates are named by (read, location) indices, so
// each read is encoded and shipped once and the filter extracts reference
// segments itself. Both gkgpu.Engine (the GPU path) and gkgpu.CPUEngine
// satisfy it; a nil PreFilter reproduces the paper's "No Filter" rows.
type PreFilter interface {
	SetReference(seq []byte) error
	FilterCandidates(reads [][]byte, cands []gkgpu.Candidate, errThreshold int) ([]gkgpu.Result, error)
}

// Config parametrizes a mapping run.
type Config struct {
	ReadLen int
	MaxE    int
	SeedLen int // defaults to DefaultSeedLen
	// SeedStep samples the index: only reference windows starting at
	// contig-relative offsets divisible by SeedStep are indexed
	// (accel-align's kmer_step), shrinking the index ~SeedStep× while
	// seeding probes SeedStep consecutive read offsets per pigeonhole seed
	// to compensate. Zero or 1 indexes every window (bit-identical to the
	// unstepped mapper). Must leave the probe span inside the read:
	// SeedStep <= ReadLen-SeedLen+1.
	SeedStep int
	// MaxReadsPerBatch is the slab size: the number of reads seeded together,
	// filtered in one FilterCandidates call and verified together (Table 1;
	// the paper finds 100,000 best). Every entry point cuts its input into
	// these slabs — a mate pair is never split, so a paired slab holds half
	// as many pairs — and the channel-fed ones hold at most two slabs of
	// reads (one mapping, one arriving). Output does not depend on it. Zero
	// means 100,000.
	MaxReadsPerBatch int
	Filter           PreFilter
	// Traceback makes verification produce CIGAR strings for SAM output at
	// the cost of recording the verifier's pass and walking it back.
	Traceback bool
	// BothStrands also maps the reverse complement of every read, as real
	// short read mappers do; reverse-strand mappings carry Reverse=true.
	BothStrands bool
	// StreamWorkers is the width of the seeding and verification fan-out
	// inside a slab, on every entry point. Output does not depend on it.
	// Zero uses GOMAXPROCS.
	StreamWorkers int
}

func (c *Config) applyDefaults() {
	if c.SeedLen == 0 {
		c.SeedLen = DefaultSeedLen
	}
	if c.SeedStep == 0 {
		c.SeedStep = 1
	}
	if c.MaxReadsPerBatch == 0 {
		c.MaxReadsPerBatch = 100_000
	}
}

// checkGeometry rejects a (defaulted) read and seed geometry no read could be
// probed with.
func (c Config) checkGeometry() error {
	if c.ReadLen <= 0 {
		return fmt.Errorf("mapper: read length %d", c.ReadLen)
	}
	if c.MaxE < 0 || c.MaxE >= c.ReadLen {
		return fmt.Errorf("mapper: error threshold %d outside [0,%d)", c.MaxE, c.ReadLen)
	}
	if c.MaxReadsPerBatch < 0 {
		return fmt.Errorf("mapper: negative slab size %d reads", c.MaxReadsPerBatch)
	}
	if c.SeedLen > c.ReadLen {
		return fmt.Errorf("mapper: seed length %d exceeds read length %d", c.SeedLen, c.ReadLen)
	}
	if c.SeedStep < 1 || c.SeedStep > c.ReadLen-c.SeedLen+1 {
		return fmt.Errorf("mapper: seed step %d outside [1,%d] (probe span must fit the read)",
			c.SeedStep, c.ReadLen-c.SeedLen+1)
	}
	return nil
}

// Mapping is one reported alignment. Coordinates are contig-relative:
// Contig indexes the mapper's Reference contig table and Pos is the offset
// of the candidate window inside that contig (for a single-contig reference
// Contig is 0 and Pos equals the historical flat-reference offset).
type Mapping struct {
	ReadID   int
	Contig   int    // index into Reference.Contigs()
	Pos      int    // contig-relative offset of the candidate window
	Distance int    // verified edit distance
	CIGAR    string // populated when Config.Traceback is set
	Reverse  bool   // mapping of the read's reverse complement
}

// Stats carries the whole-genome evaluation metrics of Section 4.5: "the
// number of mappings, the number of mapped reads, the total number of
// candidate mappings, the total number of candidate mappings that enter
// verification, time spent for verification, time spent for preprocessing
// before pre-alignment filtering, and total kernel time".
type Stats struct {
	Reads              int64
	CandidatePairs     int64 // candidate mappings found by seeding
	VerificationPairs  int64 // candidates that enter verification
	WavefrontPairs     int64 // of those, settled on the verifier's wavefront
	HandedOverPairs    int64 // of those, handed over to the verifier's column pass
	RejectedPairs      int64 // candidates removed by the filter
	UndefinedPairs     int64 // candidates passed through for 'N'
	Mappings           int64
	MappedReads        int64
	SeedSeconds        float64 // wall: seeding + candidate collection
	PreprocessSeconds  float64 // wall: buffer preparation before filtering; zero since seeding builds the filter's candidate list itself
	FilterWallSeconds  float64 // wall: pre-alignment filtering
	FilterKernelModel  float64 // modelled device kernel seconds
	FilterModelSeconds float64 // modelled end-to-end filter seconds
	FilterPrepModel    float64 // modelled host encode/fill seconds
	VerifySeconds      float64 // wall: edit-distance verification
	TotalSeconds       float64 // wall: the whole run, a channel-fed one's waits for input included

	// Paired-end accounting, populated by MapPairs and MapPairStream only.
	ReadPairs       int64 // input mate pairs
	ConcordantPairs int64 // pairs resolved inside the insert window

	// Insert-window accounting, populated by MapPairs and MapPairStream
	// only. The window is the one concordance was resolved against; the
	// estimate fields stay zero when the caller passed an explicit window.
	InsertWindowMin    int
	InsertWindowMax    int
	InsertMean         float64 // estimated mean fragment length
	InsertStd          float64 // estimated fragment length std deviation
	InsertSampledPairs int64   // confident pairs behind the estimate
}

// Reduction returns the fraction of candidate mappings the filter removed —
// the headline quantity of Tables 3 and S.24-S.26.
func (s Stats) Reduction() float64 {
	if s.CandidatePairs == 0 {
		return 0
	}
	return float64(s.RejectedPairs) / float64(s.CandidatePairs)
}

// Mapper maps fixed-length reads against an indexed (multi-contig)
// reference.
type Mapper struct {
	cfg Config
	ref *Reference
	idx *Index
}

// New builds a mapper over one flat reference sequence, treated as a single
// contig. NewFromReference is the multi-contig form.
func New(ref []byte, cfg Config) (*Mapper, error) {
	return NewFromReference(SingleContig("", ref), cfg)
}

// NewFromReference builds a mapper over a multi-contig reference: seeding,
// filtering, and verification run over the concatenated sequence, candidate
// windows never straddle a contig boundary, and reported Mappings carry
// (contig, contig-relative position) coordinates.
func NewFromReference(ref *Reference, cfg Config) (*Mapper, error) {
	cfg.applyDefaults()
	if err := cfg.checkGeometry(); err != nil {
		return nil, err
	}
	idx, err := NewSteppedReferenceIndex(ref, cfg.SeedLen, cfg.SeedStep)
	if err != nil {
		return nil, err
	}
	return newMapperWithIndex(ref, cfg, idx)
}

// newMapperWithIndex is the tail of NewFromReference, shared with
// NewFromSerializedIndex: wrap an already-built (or loaded) index and load
// the reference into the filter, if any. cfg must already be validated and
// idx must index ref with cfg's seed geometry.
func newMapperWithIndex(ref *Reference, cfg Config, idx *Index) (*Mapper, error) {
	if cfg.Filter != nil {
		if err := cfg.Filter.SetReference(ref.Seq()); err != nil {
			return nil, fmt.Errorf("mapper: loading reference into filter: %w", err)
		}
	}
	return &Mapper{cfg: cfg, ref: ref, idx: idx}, nil
}

// NewFromSerializedIndex builds a Mapper from a reference plus a GKIX index
// file previously written by Index.Serialize (cmd/gkindex), skipping the
// index build. The file must have been built from ref (ErrIndexMismatch
// otherwise, via the serialized fingerprint). The index's seed geometry is
// authoritative: when cfg.SeedLen or cfg.SeedStep is zero the mapper adopts
// the file's k or step, and a non-zero value that disagrees with the file is
// an ErrIndexMismatch — mapping silently with a different geometry than the
// index was built for is never right.
func NewFromSerializedIndex(ref *Reference, path string, cfg Config) (*Mapper, error) {
	idx, err := LoadIndexFile(path, ref)
	if err != nil {
		return nil, err
	}
	if err := checkIndexGeometry(cfg, idx); err != nil {
		return nil, err
	}
	cfg.SeedLen, cfg.SeedStep = idx.K(), idx.Step()
	cfg.applyDefaults()
	if err := cfg.checkGeometry(); err != nil {
		return nil, err
	}
	return newMapperWithIndex(ref, cfg, idx)
}

// checkIndexGeometry verifies a non-zero configured seed geometry against a
// loaded index; a disagreement is an ErrIndexMismatch.
func checkIndexGeometry(cfg Config, idx *Index) error {
	if cfg.SeedLen != 0 && cfg.SeedLen != idx.K() {
		return fmt.Errorf("%w: config seed length %d, index built with k=%d",
			ErrIndexMismatch, cfg.SeedLen, idx.K())
	}
	if cfg.SeedStep != 0 && cfg.SeedStep != idx.Step() {
		return fmt.Errorf("%w: config seed step %d, index built with step=%d",
			ErrIndexMismatch, cfg.SeedStep, idx.Step())
	}
	return nil
}

// Index exposes the underlying k-mer index.
func (m *Mapper) Index() *Index { return m.idx }

// Reference exposes the mapper's contig table.
func (m *Mapper) Reference() *Reference { return m.ref }

// workers resolves the configured fan-out width against the machine.
func (m *Mapper) workers() int {
	if w := m.cfg.StreamWorkers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// query names one oriented sequence of a slab: a read, or its reverse
// complement under Config.BothStrands.
type query struct {
	readID  int
	reverse bool
}

// slab is one batch of oriented queries, built by a feeder and mapped by
// mapSlab. seqs is kept beside queries because it is the reads argument of
// FilterCandidates as it stands: query i's candidates name it by i.
type slab struct {
	queries []query
	seqs    [][]byte // seqs[i] is queries[i]'s sequence

	// rc is the byte arena reverse complements are cut from. newSlab sizes
	// it for the whole slab; a zero slab's grows in chunks — an arena that
	// fills is left to the sequences cut from it and replaced by one twice as
	// large.
	rc []byte
}

// newSlab returns an empty slab with room for n records of per queries each:
// all of a record's queries but its first are reverse complements.
func (m *Mapper) newSlab(n, per int) *slab {
	return &slab{queries: make([]query, 0, n*per), seqs: make([][]byte, 0, n*per),
		rc: make([]byte, 0, n*(per-1)*m.cfg.ReadLen)}
}

// reset empties the slab for the next batch, keeping its storage — for a
// feeder that builds a slab only after the last one is mapped.
func (sl *slab) reset() {
	sl.queries, sl.seqs, sl.rc = sl.queries[:0], sl.seqs[:0], sl.rc[:0]
}

// revComp returns the reverse complement of seq in the slab's own storage.
func (sl *slab) revComp(seq []byte) []byte {
	lo := len(sl.rc)
	if cap(sl.rc)-lo < len(seq) {
		sl.rc, lo = make([]byte, 0, max(len(seq), 2*cap(sl.rc))), 0
	}
	sl.rc = sl.rc[:lo+len(seq)]
	rc := sl.rc[lo:len(sl.rc):len(sl.rc)]
	dna.ReverseComplementInto(rc, seq)
	return rc
}

// queriesPerRead is how many queries orient appends per read.
func (m *Mapper) queriesPerRead() int {
	if m.cfg.BothStrands {
		return 2
	}
	return 1
}

// orient appends the queries of one read to the slab: the sequence as given,
// then its reverse complement under Config.BothStrands.
func (m *Mapper) orient(sl *slab, readID int, seq []byte) {
	sl.queries = append(sl.queries, query{readID: readID})
	sl.seqs = append(sl.seqs, seq)
	if m.cfg.BothStrands {
		sl.queries = append(sl.queries, query{readID: readID, reverse: true})
		sl.seqs = append(sl.seqs, sl.revComp(seq))
	}
}

// worker is one pool worker's state, kept for a whole mapSlabs run: its
// seeder, its verifier, and what its share of the verify loop produced — the
// mappings it kept and plain tallies, merged once when the run ends.
type worker struct {
	seeder   seeder
	verifier align.Verifier
	kept     []Mapping

	verified, rejected, undefined int64
}

// run is what a mapSlabs call keeps across its slabs: the pool's workers and
// the slab-sized tables mapSlab refills.
type run struct {
	workers []worker
	spans   []span            // per query: where its candidates lie, and in whose arena
	cands   []gkgpu.Candidate // the slab's candidates in query order
}

// newRun sets up the worker pool of one run at threshold e.
func (m *Mapper) newRun(e int) *run {
	r := &run{workers: make([]worker, m.workers())}
	for w := range r.workers {
		r.workers[w].seeder = newSeeder(m.idx, m.cfg.ReadLen, e)
	}
	return r
}

// mapSlab is the mapper's one seeding → filter → verify core, the paper's
// slab-batched mrFAST integration: every query of the slab is seeded, the
// slab's candidates go through the pre-alignment filter in one
// FilterCandidates call, and the survivors are verified. Seeding and
// verification fan out over the run's workers (the engines parallelize
// filtering internally). Each verify worker appends the mappings it keeps to
// its own list, so the order mappings are collected in depends on the pool
// width and on which worker claimed which block. The set does not, no two of
// its members share (read, contig, position, strand), and mapSlabs sorts on
// exactly that key — so the output is the serial walk's, byte for byte, for
// any width. Stage walls and the candidate count accumulate into st, the
// verify tallies into the workers.
func (m *Mapper) mapSlab(sl *slab, e int, r *run, st *Stats) error {
	L := m.cfg.ReadLen
	ref := m.idx.seq

	seedStart := time.Now()
	cands := r.seed(sl.seqs)
	st.SeedSeconds += time.Since(seedStart).Seconds()
	st.CandidatePairs += int64(len(cands))
	if len(cands) == 0 {
		return nil
	}

	// The slab is already in the filter's form ("we fill the buffers with
	// multiple reads and their candidate location indices"); verdicts stays
	// nil without a filter, and every candidate goes to verification.
	var verdicts []gkgpu.Result
	if m.cfg.Filter != nil {
		filtStart := time.Now()
		var err error
		verdicts, err = m.cfg.Filter.FilterCandidates(sl.seqs, cands, e)
		st.FilterWallSeconds += time.Since(filtStart).Seconds()
		if err != nil {
			return fmt.Errorf("mapper: pre-alignment filter: %w", err)
		}
		if len(verdicts) != len(cands) {
			return fmt.Errorf("mapper: pre-alignment filter returned %d results for %d candidates",
				len(verdicts), len(cands))
		}
	}

	// Verification: thresholded edit distance for surviving candidates. A
	// slab's candidates are in query order, so a worker verifying a block of
	// them prepares each query once. A block's contig lookups count
	// into metrics.ContigLocates once, as its probes did in seedBlock.
	verifyStart := time.Now()
	par.For(len(r.workers), len(cands), 32, func(w, lo, hi int) {
		wk := &r.workers[w]
		v := &wk.verifier
		prepared := int64(-1)
		var verified, rejected, undefined int64
		for i := lo; i < hi; i++ {
			if verdicts != nil {
				if !verdicts[i].Accept {
					rejected++
					continue
				}
				if verdicts[i].Undefined {
					undefined++
				}
			}
			verified++
			c := cands[i]
			q := sl.queries[c.ReadID]
			if c.ReadID != prepared {
				v.Prepare(sl.seqs[c.ReadID])
				prepared = c.ReadID
			}
			window := ref[c.Pos : int(c.Pos)+L]
			ci, rel := m.ref.locate(int(c.Pos))
			if m.cfg.Traceback {
				if al, ok := v.Align(window, e); ok {
					wk.kept = append(wk.kept, Mapping{ReadID: q.readID, Contig: ci, Pos: rel,
						Distance: al.Distance, CIGAR: al.CIGARCompat(), Reverse: q.reverse})
				}
			} else if d, ok := v.Distance(window, e); ok {
				wk.kept = append(wk.kept, Mapping{ReadID: q.readID, Contig: ci, Pos: rel,
					Distance: d, Reverse: q.reverse})
			}
		}
		metrics.ContigLocates.Add(uint64(verified))
		wk.verified += verified
		wk.rejected += rejected
		wk.undefined += undefined
	})
	st.VerifySeconds += time.Since(verifyStart).Seconds()
	return nil
}

// mapSlabs is the loop behind every entry point: it maps the slabs next
// hands it, one at a time, until next returns none, and returns the mappings
// in (read, contig, position, strand) order with the run's statistics. A
// slab is garbage once it is mapped (next may hand the same one back,
// refilled), so a run's memory beyond its output is bounded by the slab,
// whatever fed it.
func (m *Mapper) mapSlabs(e int, next func() *slab) ([]Mapping, Stats, error) {
	if e > m.cfg.MaxE {
		return nil, Stats{}, fmt.Errorf("mapper: threshold %d exceeds configured %d", e, m.cfg.MaxE)
	}
	var st Stats
	totalStart := time.Now()
	filterBefore := m.filterStats()
	r := m.newRun(e)
	for sl := next(); sl != nil && len(sl.queries) > 0; sl = next() {
		for _, q := range sl.queries {
			if !q.reverse {
				st.Reads++
			}
		}
		if err := m.mapSlab(sl, e, r, &st); err != nil {
			return nil, Stats{}, err
		}
	}
	// Merge the workers: the first list takes the others' mappings, and the
	// sort below makes the order they arrive in immaterial.
	mappings := r.workers[0].kept
	for w := range r.workers {
		wk := &r.workers[w]
		if w > 0 {
			mappings = append(mappings, wk.kept...)
		}
		st.VerificationPairs += wk.verified
		st.WavefrontPairs += int64(wk.verifier.Finished)
		st.HandedOverPairs += int64(wk.verifier.HandedOver)
		st.RejectedPairs += wk.rejected
		st.UndefinedPairs += wk.undefined
	}
	sortMappings(mappings)
	st.Mappings = int64(len(mappings))
	st.MappedReads = countMappedReads(mappings)
	st.setFilterModel(filterBefore, m.filterStats())
	st.TotalSeconds = time.Since(totalStart).Seconds()
	return mappings, st, nil
}

// MapReads maps every read at threshold e — seeding, the configured
// pre-alignment filter (when present), verification, slab by slab — and
// returns the mappings in (read, position) order together with the run's
// statistics. The result is bit-identical for any MaxReadsPerBatch and any
// StreamWorkers.
func (m *Mapper) MapReads(reads [][]byte, e int) ([]Mapping, Stats, error) {
	for i, r := range reads {
		if len(r) != m.cfg.ReadLen {
			return nil, Stats{}, fmt.Errorf("mapper: read %d has length %d, mapper built for %d",
				i, len(r), m.cfg.ReadLen)
		}
	}
	lo := 0
	sl := m.newSlab(min(m.cfg.MaxReadsPerBatch, len(reads)), m.queriesPerRead())
	return m.mapSlabs(e, func() *slab {
		sl.reset()
		for hi := min(lo+m.cfg.MaxReadsPerBatch, len(reads)); lo < hi; lo++ {
			m.orient(sl, lo, reads[lo])
		}
		return sl
	})
}

// filterStats snapshots the configured filter's accumulated measurements —
// both engines keep them; a filter that does not reads as zero.
func (m *Mapper) filterStats() gkgpu.Stats {
	if f, ok := m.cfg.Filter.(interface{ Stats() gkgpu.Stats }); ok {
		return f.Stats()
	}
	return gkgpu.Stats{}
}

// setFilterModel reports the modelled filter clocks of one run: what the
// filter's lifetime counters gained between the run's two snapshots, so a
// mapper (or an engine) used for several runs reports each run's own share.
func (st *Stats) setFilterModel(before, after gkgpu.Stats) {
	st.FilterKernelModel = after.KernelSeconds - before.KernelSeconds
	st.FilterModelSeconds = after.FilterSeconds - before.FilterSeconds
	st.FilterPrepModel = after.HostPrepSeconds - before.HostPrepSeconds
}

// sortMappings puts a mapping list into the mapper's canonical report order,
// compareMappings'. mapSlab collects a run's mappings in whatever order its
// workers produce them; this sort is what makes every entry point emit
// byte-identical output for any pool width.
func sortMappings(mappings []Mapping) {
	slices.SortFunc(mappings, compareMappings)
}

// compareMappings orders mappings by (read, contig, position, strand).
// Contigs order as the reference lays them out, so the order equals the
// historical flat-position order. The key is total over one run's mappings —
// a query's candidates are distinct, so no two mappings share read, strand
// and position, and the strand field separates the rare read whose forward
// and reverse-complement queries map at the same position — so a run's
// sorted list does not depend on the order it was collected in.
func compareMappings(a, b Mapping) int {
	if c := cmp.Compare(a.ReadID, b.ReadID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Contig, b.Contig); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pos, b.Pos); c != 0 {
		return c
	}
	switch {
	case a.Reverse == b.Reverse:
		return 0
	case b.Reverse:
		return -1
	}
	return 1
}

// countMappedReads counts the distinct reads in a mapping list already in
// sortMappings order, where a read's mappings are adjacent.
func countMappedReads(mappings []Mapping) int64 {
	var n int64
	for i := range mappings {
		if i == 0 || mappings[i].ReadID != mappings[i-1].ReadID {
			n++
		}
	}
	return n
}
