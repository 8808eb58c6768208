package mapper

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/gkgpu"
)

// PreFilter is the pre-alignment filtering hook between seeding and
// verification. Both gkgpu.Engine (the GPU path) and gkgpu.CPUEngine satisfy
// it; a nil PreFilter reproduces the paper's "No Filter" rows.
type PreFilter interface {
	FilterPairs(pairs []gkgpu.Pair, errThreshold int) ([]gkgpu.Result, error)
}

// CandidateFilter extends PreFilter with the paper's actual mrFAST
// integration (Section 3.5): the filter holds the encoded reference (in
// unified memory on the device engine) and candidates are named by (read,
// location) indices, so each read is encoded and shipped once and the filter
// extracts reference segments itself. Both gkgpu.Engine and gkgpu.CPUEngine
// implement it; both mapper cores — MapReads and the streaming pipeline's
// inline dispatcher — use this path whenever available.
type CandidateFilter interface {
	PreFilter
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
	// MaxReadsPerBatch is the number of reads whose candidates are batched
	// into one filtering round (Table 1; the paper finds 100,000 best).
	MaxReadsPerBatch int
	Filter           PreFilter
	// Traceback makes verification produce CIGAR strings for SAM output at
	// the cost of materializing the DP band.
	Traceback bool
	// BothStrands also maps the reverse complement of every read, as real
	// short read mappers do; reverse-strand mappings carry Reverse=true.
	BothStrands bool
	// StreamWorkers sizes the seeding and verification worker pools — the
	// streaming pipeline's stage pools and the one-shot MapReads fan-out
	// alike. Zero uses GOMAXPROCS.
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
	TotalSeconds       float64

	// Streaming-pipeline metrics, populated by MapStream and MapPairs only.
	// On the streaming path SeedSeconds and VerifySeconds are aggregate
	// worker-busy seconds (the stage cost, summed across the pools) rather
	// than wall time, and PipelineWallSeconds is the single wall clock the
	// overlapped seed → filter → verify pipeline actually took.
	PipelineWallSeconds float64

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

// StageSeconds is the modelled serial cost of the pipeline: what seeding,
// filtering, and verification would take end to end with no overlap. On the
// one-shot path it is simply how the run decomposed; on the streaming path
// comparing it against PipelineWallSeconds measures the overlap won.
func (s Stats) StageSeconds() float64 {
	if s.PipelineWallSeconds > 0 {
		// Streaming path: FilterWallSeconds is the wall the filter stream
		// stayed open, which overlaps the other stages (and includes time
		// spent waiting on producers); the filter's serial-equivalent cost
		// is the modelled end-to-end filter time.
		return s.SeedSeconds + s.FilterModelSeconds + s.VerifySeconds
	}
	return s.SeedSeconds + s.FilterWallSeconds + s.VerifySeconds
}

// OverlapSeconds is the stage time the streaming pipeline hid by running
// seeding, filtering, and verification concurrently (zero on the one-shot
// path, where PipelineWallSeconds is not populated).
func (s Stats) OverlapSeconds() float64 {
	if s.PipelineWallSeconds <= 0 {
		return 0
	}
	if d := s.StageSeconds() - s.PipelineWallSeconds; d > 0 {
		return d
	}
	return 0
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
	cfg        Config
	ref        *Reference
	idx        *Index
	candFilter CandidateFilter // non-nil when cfg.Filter supports the index path
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
// NewFromSerializedIndex: wrap an already-built (or loaded) index and wire
// the optional candidate filter. cfg must already be validated and idx must
// index ref with cfg's seed geometry.
func newMapperWithIndex(ref *Reference, cfg Config, idx *Index) (*Mapper, error) {
	m := &Mapper{cfg: cfg, ref: ref, idx: idx}
	if cf, ok := cfg.Filter.(CandidateFilter); ok {
		if err := cf.SetReference(ref.Seq()); err != nil {
			return nil, fmt.Errorf("mapper: loading reference into filter: %w", err)
		}
		m.candFilter = cf
	}
	return m, nil
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

// workerCount resolves the configured pool width against the machine and the
// work available.
func (m *Mapper) workerCount(n int) int {
	w := m.cfg.StreamWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs body over [0, n) across workers goroutines, each claiming
// grain-sized blocks off a shared cursor (the same dynamic schedule as the
// batch filter front end, and channel-free by design: the block index fully
// determines each worker's writes, so indexed slices are the only shared
// state). body must touch only its [lo, hi) slots; w names the calling
// worker, in [0, workers), so a body can keep per-worker scratch.
func parallelFor(workers, n, grain int, body func(w, lo, hi int)) {
	if n == 0 {
		return
	}
	if workers == 1 || n <= grain {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// MapReads maps every read at threshold e, batching candidates through the
// configured pre-alignment filter (when present) before verification, and
// returns the mappings in (read, position) order together with the run's
// statistics. Seeding and verification fan out across the StreamWorkers
// pool (and the engines parallelize filtering internally), so the one-shot
// seeding→filter→verify pipeline runs at machine width end to end; the
// result is bit-identical to a serial run for any pool size.
func (m *Mapper) MapReads(reads [][]byte, e int) ([]Mapping, Stats, error) {
	if e > m.cfg.MaxE {
		return nil, Stats{}, fmt.Errorf("mapper: threshold %d exceeds configured %d", e, m.cfg.MaxE)
	}
	for i, r := range reads {
		if len(r) != m.cfg.ReadLen {
			return nil, Stats{}, fmt.Errorf("mapper: read %d has length %d, mapper built for %d",
				i, len(r), m.cfg.ReadLen)
		}
	}
	var st Stats
	var mappings []Mapping
	totalStart := time.Now()
	filterBefore := m.filterStats()
	L := m.cfg.ReadLen
	ref := m.idx.seq

	for lo := 0; lo < len(reads); lo += m.cfg.MaxReadsPerBatch {
		hi := lo + m.cfg.MaxReadsPerBatch
		if hi > len(reads) {
			hi = len(reads)
		}
		// The batch's query sequences: each read, plus its reverse
		// complement when both-strand mapping is on.
		type query struct {
			readID  int
			reverse bool
		}
		var batch [][]byte
		var queries []query
		for ri, read := range reads[lo:hi] {
			batch = append(batch, read)
			queries = append(queries, query{readID: lo + ri})
			if m.cfg.BothStrands {
				batch = append(batch, dna.ReverseComplement(read))
				queries = append(queries, query{readID: lo + ri, reverse: true})
			}
		}

		// Seeding: collect candidate locations for the whole batch, fanned
		// out across the worker pool. Each query's candidate list lands in
		// its own slot, and the flatten below walks slots in query order, so
		// the candidate sequence is byte-identical to the serial walk.
		seedStart := time.Now()
		type cand struct {
			query int // index into batch/queries
			pos   int64
		}
		perQuery := make([][]int64, len(batch))
		parallelFor(m.workerCount(len(batch)), len(batch), 8, func(_, lo, hi int) {
			for qi := lo; qi < hi; qi++ {
				perQuery[qi] = m.candidates(batch[qi], e)
			}
		})
		var cands []cand
		for qi := range perQuery {
			for _, pos := range perQuery[qi] {
				cands = append(cands, cand{query: qi, pos: pos})
			}
		}
		st.SeedSeconds += time.Since(seedStart).Seconds()
		st.CandidatePairs += int64(len(cands))
		if len(cands) == 0 {
			continue
		}

		// Preprocessing: fill the filtering buffers ("we fill the buffers
		// with multiple reads and their candidate location indices") — the
		// (read, location) indices when the filter takes them, materialized
		// pairs otherwise. Pre-alignment filtering then runs on whichever was
		// filled; verdicts stays nil without a filter (every candidate goes
		// to verification).
		var verdicts []gkgpu.Result
		var err error
		switch {
		case m.candFilter != nil:
			prepStart := time.Now()
			gcands := make([]gkgpu.Candidate, len(cands))
			for i, c := range cands {
				gcands[i] = gkgpu.Candidate{ReadID: int64(c.query), Pos: c.pos}
			}
			st.PreprocessSeconds += time.Since(prepStart).Seconds()
			filtStart := time.Now()
			verdicts, err = m.candFilter.FilterCandidates(batch, gcands, e)
			st.FilterWallSeconds += time.Since(filtStart).Seconds()
		case m.cfg.Filter != nil:
			prepStart := time.Now()
			pairs := make([]gkgpu.Pair, len(cands))
			for i, c := range cands {
				pairs[i] = gkgpu.Pair{Read: batch[c.query], Ref: ref[c.pos : int(c.pos)+L]}
			}
			st.PreprocessSeconds += time.Since(prepStart).Seconds()
			filtStart := time.Now()
			verdicts, err = m.cfg.Filter.FilterPairs(pairs, e)
			st.FilterWallSeconds += time.Since(filtStart).Seconds()
		}
		if err != nil {
			return nil, Stats{}, fmt.Errorf("mapper: pre-alignment filter: %w", err)
		}
		if verdicts != nil && len(verdicts) != len(cands) {
			return nil, Stats{}, fmt.Errorf("mapper: pre-alignment filter returned %d results for %d candidates",
				len(verdicts), len(cands))
		}

		// Verification: thresholded edit distance for surviving pairs, fanned
		// out across the worker pool into per-candidate slots; the serial pass
		// below tallies stats and appends surviving mappings in candidate
		// order, so the mapping list equals the serial walk's before the
		// final canonical sort. Each worker holds one verifier and prepares a
		// query's masks once: candidates are query-ordered, so all of a
		// query's candidates inside a claimed block share them.
		verifyStart := time.Now()
		slots := make([]Mapping, len(cands))
		kept := make([]bool, len(cands))
		verifyWorkers := m.workerCount(len(cands))
		verifiers := make([]align.Verifier, verifyWorkers)
		parallelFor(verifyWorkers, len(cands), 32, func(w, lo, hi int) {
			v := &verifiers[w]
			prepared := -1
			for i := lo; i < hi; i++ {
				if verdicts != nil && !verdicts[i].Accept {
					continue
				}
				c := cands[i]
				if c.query != prepared {
					v.Prepare(batch[c.query])
					prepared = c.query
				}
				q := queries[c.query]
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
				mappings = append(mappings, slots[i])
			}
		}
		st.VerifySeconds += time.Since(verifyStart).Seconds()
	}

	// Recompute aggregate counters from the mapping list (cheap and exact).
	sortMappings(mappings)
	st.Mappings = int64(len(mappings))
	st.MappedReads = countMappedReads(mappings)
	st.Reads = int64(len(reads))
	st.setFilterModel(filterBefore, m.filterStats())
	st.TotalSeconds = time.Since(totalStart).Seconds()
	return mappings, st, nil
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
// tie-break keeps it fully deterministic — MapReads and MapStream must emit
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
