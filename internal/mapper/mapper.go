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
	// the cost of materializing the DP band.
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
	RejectedPairs      int64 // candidates removed by the filter
	UndefinedPairs     int64 // candidates passed through for 'N'
	Mappings           int64
	MappedReads        int64
	SeedSeconds        float64 // wall: seeding + candidate collection
	PreprocessSeconds  float64 // wall: batching/buffer preparation
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
	if cfg.ReadLen <= 0 {
		return nil, fmt.Errorf("mapper: read length %d", cfg.ReadLen)
	}
	if cfg.MaxE < 0 || cfg.MaxE >= cfg.ReadLen {
		return nil, fmt.Errorf("mapper: error threshold %d outside [0,%d)", cfg.MaxE, cfg.ReadLen)
	}
	if cfg.SeedLen > cfg.ReadLen {
		return nil, fmt.Errorf("mapper: seed length %d exceeds read length %d", cfg.SeedLen, cfg.ReadLen)
	}
	if cfg.SeedStep < 1 || cfg.SeedStep > cfg.ReadLen-cfg.SeedLen+1 {
		return nil, fmt.Errorf("mapper: seed step %d outside [1,%d] (probe span must fit the read)",
			cfg.SeedStep, cfg.ReadLen-cfg.SeedLen+1)
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
	if cfg.ReadLen <= 0 {
		return nil, fmt.Errorf("mapper: read length %d", cfg.ReadLen)
	}
	if cfg.MaxE < 0 || cfg.MaxE >= cfg.ReadLen {
		return nil, fmt.Errorf("mapper: error threshold %d outside [0,%d)", cfg.MaxE, cfg.ReadLen)
	}
	if cfg.SeedLen > cfg.ReadLen {
		return nil, fmt.Errorf("mapper: seed length %d exceeds read length %d", cfg.SeedLen, cfg.ReadLen)
	}
	if cfg.SeedStep < 1 || cfg.SeedStep > cfg.ReadLen-cfg.SeedLen+1 {
		return nil, fmt.Errorf("mapper: seed step %d outside [1,%d] (probe span must fit the read)",
			cfg.SeedStep, cfg.ReadLen-cfg.SeedLen+1)
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

// candidates runs pigeonhole seeding for one read: e+1 seeds at evenly
// spread offsets; each hit proposes the window that would place the read at
// that seed offset. When the index is stepped, each pigeonhole seed fans
// out over the step consecutive read offsets starting at its own — the
// index holds one in every step contig-relative window starts, so whatever
// phase the true alignment has, exactly one probe in the fan lines up with
// a sampled reference window (found whenever the k+step-1 bases around the
// seed are error-free, the stepped pigeonhole trade-off); at step 1 the fan
// is the single historical probe. Windows that would run past the start or
// end of the hit's contig — including into a neighbouring contig of the
// concatenated sequence — are dropped here, before filtering, so a
// cross-boundary candidate never reaches verification. Duplicates are
// merged.
func (m *Mapper) candidates(read []byte, e int) []int64 {
	L := m.cfg.ReadLen
	k := m.idx.k
	step := m.idx.step
	nSeeds := e + 1
	if maxSeeds := L / k; nSeeds > maxSeeds {
		nSeeds = maxSeeds
	}
	if nSeeds < 1 {
		nSeeds = 1
	}
	var out []int64
	for s := 0; s < nSeeds; s++ {
		var off int
		if nSeeds == 1 {
			off = 0
		} else {
			off = s * (L - k) / (nSeeds - 1)
		}
		for o := off; o < off+step && o+k <= L; o++ {
			for _, hit := range m.idx.Lookup(read[o : o+k]) {
				pos := hit - int64(o)
				// The hit's k-window is inside one contig by construction;
				// the proposed read window must be too — WindowContig
				// rejects windows out of range or straddling a contig
				// boundary.
				if m.ref.WindowContig(int(pos), L) < 0 {
					continue
				}
				out = append(out, pos)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	dedup := out[:1]
	for _, p := range out[1:] {
		if p != dedup[len(dedup)-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup
}

// workers resolves the configured fan-out width against the machine.
func (m *Mapper) workers() int {
	if w := m.cfg.StreamWorkers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// query is one oriented sequence to map: a read, or its reverse complement
// under Config.BothStrands. It carries its own read id and strand, so a slab
// of queries needs no table beside it.
type query struct {
	readID  int
	reverse bool
	seq     []byte
}

// orient appends the queries of one read to qs: the sequence as given, then
// its reverse complement under Config.BothStrands.
func (m *Mapper) orient(qs []query, readID int, seq []byte) []query {
	qs = append(qs, query{readID: readID, seq: seq})
	if m.cfg.BothStrands {
		qs = append(qs, query{readID: readID, reverse: true, seq: dna.ReverseComplement(seq)})
	}
	return qs
}

// slabCand is one candidate of a slab. A slab's candidates are in query
// order, so a worker verifying a block of them prepares each query's masks
// once.
type slabCand struct {
	query int // index into the slab's queries
	pos   int64
}

// mapSlab is the mapper's one seeding → filter → verify core, the paper's
// slab-batched mrFAST integration: every query of the slab is seeded, the
// slab's candidates go through the pre-alignment filter in one
// FilterCandidates call, and the survivors are verified. Seeding and
// verification fan out over the worker pool (the engines parallelize
// filtering internally) into per-query and per-candidate slots, so the
// mappings appended to out — in candidate order — are the serial walk's for
// any pool width. Stage walls and counters accumulate into st. verifiers
// holds one align.Verifier per pool worker and is reused across slabs.
func (m *Mapper) mapSlab(queries []query, e int, verifiers []align.Verifier, out []Mapping, st *Stats) ([]Mapping, error) {
	L := m.cfg.ReadLen
	ref := m.idx.seq

	seedStart := time.Now()
	perQuery := make([][]int64, len(queries))
	gkgpu.ParallelFor(len(verifiers), len(queries), 8, func(_, lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			perQuery[qi] = m.candidates(queries[qi].seq, e)
		}
	})
	var cands []slabCand
	for qi := range perQuery {
		for _, pos := range perQuery[qi] {
			cands = append(cands, slabCand{query: qi, pos: pos})
		}
	}
	st.SeedSeconds += time.Since(seedStart).Seconds()
	st.CandidatePairs += int64(len(cands))
	if len(cands) == 0 {
		return out, nil
	}

	// Preprocessing fills the filtering buffers ("we fill the buffers with
	// multiple reads and their candidate location indices"); verdicts stays
	// nil without a filter, and every candidate goes to verification.
	var verdicts []gkgpu.Result
	if m.cfg.Filter != nil {
		prepStart := time.Now()
		seqs := make([][]byte, len(queries))
		for qi := range queries {
			seqs[qi] = queries[qi].seq
		}
		gcands := make([]gkgpu.Candidate, len(cands))
		for i, c := range cands {
			gcands[i] = gkgpu.Candidate{ReadID: int64(c.query), Pos: c.pos}
		}
		st.PreprocessSeconds += time.Since(prepStart).Seconds()
		filtStart := time.Now()
		var err error
		verdicts, err = m.cfg.Filter.FilterCandidates(seqs, gcands, e)
		st.FilterWallSeconds += time.Since(filtStart).Seconds()
		if err != nil {
			return nil, fmt.Errorf("mapper: pre-alignment filter: %w", err)
		}
		if len(verdicts) != len(cands) {
			return nil, fmt.Errorf("mapper: pre-alignment filter returned %d results for %d candidates",
				len(verdicts), len(cands))
		}
	}

	// Verification: thresholded edit distance for surviving candidates, into
	// per-candidate slots; the serial pass below tallies stats and appends
	// the kept mappings in candidate order.
	verifyStart := time.Now()
	slots := make([]Mapping, len(cands))
	kept := make([]bool, len(cands))
	gkgpu.ParallelFor(len(verifiers), len(cands), 32, func(w, lo, hi int) {
		v := &verifiers[w]
		prepared := -1
		for i := lo; i < hi; i++ {
			if verdicts != nil && !verdicts[i].Accept {
				continue
			}
			c := cands[i]
			q := queries[c.query]
			if c.query != prepared {
				v.Prepare(q.seq)
				prepared = c.query
			}
			window := ref[c.pos : int(c.pos)+L]
			ci, rel := m.ref.Locate(int(c.pos))
			if m.cfg.Traceback {
				if al, ok := v.Align(window, e); ok {
					slots[i] = Mapping{ReadID: q.readID, Contig: ci, Pos: rel,
						Distance: al.Distance, CIGAR: al.CIGARCompat(), Reverse: q.reverse}
					kept[i] = true
				}
			} else if d, ok := v.Distance(window, e); ok {
				slots[i] = Mapping{ReadID: q.readID, Contig: ci, Pos: rel,
					Distance: d, Reverse: q.reverse}
				kept[i] = true
			}
		}
	})
	for i := range cands {
		if verdicts != nil {
			if !verdicts[i].Accept {
				st.RejectedPairs++
				continue
			}
			if verdicts[i].Undefined {
				st.UndefinedPairs++
			}
		}
		st.VerificationPairs++
		if kept[i] {
			out = append(out, slots[i])
		}
	}
	st.VerifySeconds += time.Since(verifyStart).Seconds()
	return out, nil
}

// mapSlabs is the loop behind every entry point: it maps the slabs next
// hands it, one at a time, until next returns none, and returns the mappings
// in (read, contig, position, strand) order with the run's statistics. A
// slab is garbage once it is mapped, so a run's memory beyond its output is
// bounded by the slab, whatever fed it.
func (m *Mapper) mapSlabs(e int, next func() []query) ([]Mapping, Stats, error) {
	if e > m.cfg.MaxE {
		return nil, Stats{}, fmt.Errorf("mapper: threshold %d exceeds configured %d", e, m.cfg.MaxE)
	}
	var st Stats
	var mappings []Mapping
	totalStart := time.Now()
	filterBefore := m.filterStats()
	verifiers := make([]align.Verifier, m.workers())
	for queries := next(); len(queries) > 0; queries = next() {
		for _, q := range queries {
			if !q.reverse {
				st.Reads++
			}
		}
		var err error
		if mappings, err = m.mapSlab(queries, e, verifiers, mappings, &st); err != nil {
			return nil, Stats{}, err
		}
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
	return m.mapSlabs(e, func() []query {
		hi := min(lo+m.cfg.MaxReadsPerBatch, len(reads))
		var qs []query
		for ; lo < hi; lo++ {
			qs = m.orient(qs, lo, reads[lo])
		}
		return qs
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

// sortMappings puts a mapping list into the mapper's canonical report order:
// (read, contig, position, strand). Contigs order as the reference lays them
// out, so the order equals the historical flat-position order; the strand
// tie-break keeps it fully deterministic — every entry point must emit
// byte-identical output — even for the rare read whose forward and
// reverse-complement queries map at the same position.
func sortMappings(mappings []Mapping) {
	slices.SortFunc(mappings, func(a, b Mapping) int {
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
	})
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
