package mapper

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/gkgpu"
)

// PairStreamFilter is a PreFilter with an order-preserving streaming path
// over materialized pairs, in the shape of gkgpu.Engine.FilterStream: many
// producers may feed in, results come back in send order, and StreamErr
// reports a terminal failure after the result channel closes.
type PairStreamFilter interface {
	PreFilter
	FilterStream(ctx context.Context, in <-chan gkgpu.Pair, errThreshold int) (<-chan gkgpu.Result, error)
	StreamErr() error
}

// CandidateStreamFilter is a CandidateFilter whose index-named path also
// streams: candidates carry the read bytes and a reference offset, and the
// filter extracts the window from its own device-resident reference.
// gkgpu.Engine implements it; MapStream prefers this path because no
// reference window is ever materialized on the host.
type CandidateStreamFilter interface {
	CandidateFilter
	FilterCandidateStream(ctx context.Context, in <-chan gkgpu.StreamCandidate, errThreshold int) (<-chan gkgpu.Result, error)
	StreamErr() error
}

// streamQuery is one oriented sequence to map: the read itself, or its
// reverse complement under Config.BothStrands. It carries the sequence
// directly — the pipeline keeps no global read table, so on the channel-fed
// ingestion paths a read's bytes are garbage once its candidates are
// verified.
type streamQuery struct {
	readID  int
	reverse bool
	seq     []byte
}

// candMeta identifies the candidate behind one in-flight filtration.
type candMeta struct {
	q   streamQuery
	pos int64
}

// metaQueue is the FIFO matching stream results back to their candidates:
// the feeder pushes a candidate's metadata immediately before sending it
// into the filter stream, and because the stream preserves input order, the
// consumer pops in lockstep with arriving results. It is unbounded so the
// feeder never deadlocks against the stream's internal buffering.
type metaQueue struct {
	mu   sync.Mutex
	q    []candMeta
	head int
}

func (m *metaQueue) push(c candMeta) {
	m.mu.Lock()
	m.q = append(m.q, c)
	m.mu.Unlock()
}

func (m *metaQueue) pop() candMeta {
	m.mu.Lock()
	c := m.q[m.head]
	m.head++
	if m.head == len(m.q) {
		m.q, m.head = m.q[:0], 0
	} else if m.head >= 4096 {
		m.q = append(m.q[:0], m.q[m.head:]...)
		m.head = 0
	}
	m.mu.Unlock()
	return c
}

// verifyJob is one accepted candidate awaiting verification.
type verifyJob struct {
	q         streamQuery
	pos       int64
	undefined bool
}

// mapQueryStream is the engine room shared by MapStream, MapReadStream, and
// MapPairStream: a pool of seeding workers consumes oriented queries from
// feed, candidates flow through the configured filter's streaming path, and
// a verification pool consumes accepted candidates concurrently, so seeding,
// pre-alignment filtering, and bit-vector verification overlap instead of
// running as synchronized phases.
//
// feed runs in its own goroutine and must send every query with a select on
// ctx.Done() (the pipeline stops consuming on terminal errors); a non-nil
// return is reported as the run's error. feed is always run to completion
// before mapQueryStream returns, so state it captures is safe to read
// afterwards.
//
// The filter stage adapts to what Config.Filter supports: the index-named
// candidate stream (CandidateStreamFilter, gkgpu.Engine's path — reads ship
// to the device once per candidate, reference windows stay device-resident),
// a materialized-pair stream (PairStreamFilter), an inline one-shot filter
// (anything else, called per seeded read: FilterCandidates when the filter
// has the index-named path, as gkgpu.CPUEngine does, FilterPairs otherwise),
// or no filter at all.
// Config.StreamWorkers sizes the seeding and verification pools.
func (m *Mapper) mapQueryStream(e int, feed func(ctx context.Context, out chan<- streamQuery) error) ([]Mapping, Stats, error) {
	if e > m.cfg.MaxE {
		return nil, Stats{}, fmt.Errorf("mapper: threshold %d exceeds configured %d", e, m.cfg.MaxE)
	}
	totalStart := time.Now()
	L := m.cfg.ReadLen
	ref := m.idx.seq

	workers := m.cfg.StreamWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Filter mode resolution, most to least integrated.
	var candSF CandidateStreamFilter
	var pairSF PairStreamFilter
	if sf, ok := m.candFilter.(CandidateStreamFilter); ok && m.candFilter != nil {
		candSF = sf
	} else if sf, ok := m.cfg.Filter.(PairStreamFilter); ok {
		pairSF = sf
	}

	filterBefore := m.filterStats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}

	// Open the filter stream before any worker starts so an open failure
	// needs no pipeline teardown.
	var out <-chan gkgpu.Result
	var candIn chan gkgpu.StreamCandidate
	var pairIn chan gkgpu.Pair
	var err error
	switch {
	case candSF != nil:
		candIn = make(chan gkgpu.StreamCandidate)
		out, err = candSF.FilterCandidateStream(ctx, candIn, e)
	case pairSF != nil:
		pairIn = make(chan gkgpu.Pair)
		out, err = pairSF.FilterStream(ctx, pairIn, e)
	}
	if err != nil {
		return nil, Stats{}, fmt.Errorf("mapper: opening filter stream: %w", err)
	}

	var readCount, candCount, rejectCount, verifCount, undefCount atomic.Int64
	var timeMu sync.Mutex
	var seedBusy, verifyBusy, inlineFilterBusy float64

	// Verification pool: accepted candidates to the verifier, mappings into
	// per-worker slices merged (and sorted) at the end.
	verifyJobs := make(chan verifyJob, 4*workers)
	perWorker := make([][]Mapping, workers)
	var verifyWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		verifyWg.Add(1)
		go func(w int) {
			defer verifyWg.Done()
			var local []Mapping
			var busy float64
			// One verifier per worker; a query's masks are rebuilt only when
			// the job's query differs from the last one this worker saw.
			var v align.Verifier
			preparedID, preparedRev := -1, false
			for j := range verifyJobs {
				t0 := time.Now()
				verifCount.Add(1)
				if j.undefined {
					undefCount.Add(1)
				}
				if j.q.readID != preparedID || j.q.reverse != preparedRev {
					v.Prepare(j.q.seq)
					preparedID, preparedRev = j.q.readID, j.q.reverse
				}
				window := ref[j.pos : int(j.pos)+L]
				ci, rel := m.ref.Locate(int(j.pos))
				if m.cfg.Traceback {
					if al, ok := v.Align(window, e); ok {
						local = append(local, Mapping{ReadID: j.q.readID, Contig: ci, Pos: rel,
							Distance: al.Distance, CIGAR: al.CIGARCompat(), Reverse: j.q.reverse})
					}
				} else if d, ok := v.Distance(window, e); ok {
					local = append(local, Mapping{ReadID: j.q.readID, Contig: ci, Pos: rel,
						Distance: d, Reverse: j.q.reverse})
				}
				busy += time.Since(t0).Seconds()
			}
			timeMu.Lock()
			verifyBusy += busy
			perWorker[w] = local
			timeMu.Unlock()
		}(w)
	}

	// Seeding pool: oriented queries in, per-query candidate lists out.
	type seeded struct {
		q     streamQuery
		cands []int64
	}
	jobs := make(chan streamQuery)
	seededCh := make(chan seeded, 2*workers)
	var seedWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		seedWg.Add(1)
		go func() {
			defer seedWg.Done()
			var busy float64
			defer func() {
				timeMu.Lock()
				seedBusy += busy
				timeMu.Unlock()
			}()
			for q := range jobs {
				if !q.reverse {
					readCount.Add(1)
				}
				t0 := time.Now()
				cands := m.candidates(q.seq, e)
				busy += time.Since(t0).Seconds()
				select {
				case seededCh <- seeded{q: q, cands: cands}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		if err := feed(ctx, jobs); err != nil {
			fail(err)
		}
	}()
	go func() {
		seedWg.Wait()
		close(seededCh)
	}()

	// Dispatch stage: route seeded candidates to the filter and the filter's
	// verdicts to the verification pool.
	dispatchDone := make(chan struct{})
	if out != nil {
		// Streaming filter: a feeder serializes candidates into the stream
		// (recording each one's metadata in send order) and a consumer matches
		// results back and forwards accepted candidates to verification.
		metas := &metaQueue{}
		go func() {
			// This goroutine is the channel's only sender, so it closes; the
			// defer runs after the seededCh range (and so after seedWg.Wait)
			// has finished.
			if candIn != nil {
				defer close(candIn)
			} else {
				defer close(pairIn)
			}
			for s := range seededCh {
				for _, pos := range s.cands {
					candCount.Add(1)
					metas.push(candMeta{q: s.q, pos: pos})
					if candIn != nil {
						select {
						case candIn <- gkgpu.StreamCandidate{Read: s.q.seq, Pos: pos}:
						case <-ctx.Done():
							return
						}
					} else {
						select {
						case pairIn <- gkgpu.Pair{Read: s.q.seq, Ref: ref[pos : int(pos)+L]}:
						case <-ctx.Done():
							return
						}
					}
				}
			}
		}()
		go func() {
			defer close(dispatchDone)
			defer close(verifyJobs)
			for r := range out {
				mt := metas.pop()
				if !r.Accept {
					rejectCount.Add(1)
					continue
				}
				select {
				case verifyJobs <- verifyJob{q: mt.q, pos: mt.pos, undefined: r.Undefined}:
				case <-ctx.Done():
					for range out { // let the stream drain and close
					}
					return
				}
			}
			var serr error
			if candSF != nil {
				serr = candSF.StreamErr()
			} else {
				serr = pairSF.StreamErr()
			}
			if serr != nil {
				fail(fmt.Errorf("mapper: streaming pre-alignment filter: %w", serr))
			}
		}()
	} else {
		// Inline filter (or none): one dispatcher filters each seeded read's
		// candidates in place — the filter stage still overlaps seeding and
		// verification, just without the device pipeline. A filter with the
		// index-named path takes the read once with its candidate locations
		// (the same call MapReads makes, one read per call); any other gets
		// materialized pairs.
		go func() {
			defer close(dispatchDone)
			defer close(verifyJobs)
			// The call's argument slices, reused: the filter keeps neither.
			var gcands []gkgpu.Candidate
			one := make([][]byte, 1)
			for s := range seededCh {
				if len(s.cands) == 0 {
					continue
				}
				candCount.Add(int64(len(s.cands)))
				var verdicts []gkgpu.Result
				if m.cfg.Filter != nil {
					var ferr error
					t0 := time.Now()
					if m.candFilter != nil {
						gcands = gcands[:0]
						for _, pos := range s.cands {
							gcands = append(gcands, gkgpu.Candidate{Pos: pos})
						}
						one[0] = s.q.seq
						verdicts, ferr = m.candFilter.FilterCandidates(one, gcands, e)
					} else {
						pairs := make([]gkgpu.Pair, len(s.cands))
						for i, pos := range s.cands {
							pairs[i] = gkgpu.Pair{Read: s.q.seq, Ref: ref[pos : int(pos)+L]}
						}
						verdicts, ferr = m.cfg.Filter.FilterPairs(pairs, e)
					}
					timeMu.Lock()
					inlineFilterBusy += time.Since(t0).Seconds()
					timeMu.Unlock()
					if ferr == nil && len(verdicts) != len(s.cands) {
						ferr = fmt.Errorf("%d results for %d candidates", len(verdicts), len(s.cands))
					}
					if ferr != nil {
						fail(fmt.Errorf("mapper: pre-alignment filter: %w", ferr))
						return
					}
				}
				for i, pos := range s.cands {
					j := verifyJob{q: s.q, pos: pos}
					if verdicts != nil {
						if !verdicts[i].Accept {
							rejectCount.Add(1)
							continue
						}
						j.undefined = verdicts[i].Undefined
					}
					select {
					case verifyJobs <- j:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}

	<-dispatchDone
	verifyWg.Wait()
	if firstErr != nil {
		return nil, Stats{}, firstErr
	}

	var mappings []Mapping
	for _, local := range perWorker {
		mappings = append(mappings, local...)
	}
	sortMappings(mappings)

	var st Stats
	st.Reads = readCount.Load()
	st.CandidatePairs = candCount.Load()
	st.RejectedPairs = rejectCount.Load()
	st.VerificationPairs = verifCount.Load()
	st.UndefinedPairs = undefCount.Load()
	st.Mappings = int64(len(mappings))
	st.MappedReads = countMappedReads(mappings)
	st.SeedSeconds = seedBusy
	st.VerifySeconds = verifyBusy
	st.FilterWallSeconds = inlineFilterBusy
	filterAfter := m.filterStats()
	st.setFilterModel(filterBefore, filterAfter)
	if out != nil {
		// The stream's open wall overlaps the other stages; report it as
		// the filter's wall without adding it to the stage decomposition.
		st.FilterWallSeconds = filterAfter.WallSeconds - filterBefore.WallSeconds
	}
	st.TotalSeconds = time.Since(totalStart).Seconds()
	st.PipelineWallSeconds = st.TotalSeconds
	return mappings, st, nil
}

// MapStream is the streaming counterpart of MapReads over a materialized
// read set: decisions and output are byte-identical to MapReads — same
// mappings, same order — only the execution schedule (and therefore the
// wall clock) differs. For reads arriving from a decoder or the network,
// MapReadStream is the channel-fed form.
func (m *Mapper) MapStream(reads [][]byte, e int) ([]Mapping, Stats, error) {
	if e > m.cfg.MaxE {
		return nil, Stats{}, fmt.Errorf("mapper: threshold %d exceeds configured %d", e, m.cfg.MaxE)
	}
	for i, r := range reads {
		if len(r) != m.cfg.ReadLen {
			return nil, Stats{}, fmt.Errorf("mapper: read %d has length %d, mapper built for %d",
				i, len(r), m.cfg.ReadLen)
		}
	}
	mappings, st, err := m.mapQueryStream(e, func(ctx context.Context, out chan<- streamQuery) error {
		for ri, read := range reads {
			if !sendQuery(ctx, out, streamQuery{readID: ri, seq: read}) {
				return nil
			}
			if m.cfg.BothStrands {
				q := streamQuery{readID: ri, reverse: true, seq: dna.ReverseComplement(read)}
				if !sendQuery(ctx, out, q) {
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	st.Reads = int64(len(reads))
	return mappings, st, nil
}

// sendQuery sends one query into the pipeline, giving up (false) when the
// pipeline has stopped consuming.
func sendQuery(ctx context.Context, out chan<- streamQuery, q streamQuery) bool {
	select {
	case out <- q:
		return true
	case <-ctx.Done():
		return false
	}
}
