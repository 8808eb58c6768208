package mapper

import "fmt"

// Read is one named read arriving on a channel — the ingestion unit of
// MapReadStream. Name is used for error messages only; callers that need
// names later (SAM QNAMEs) keep their own record.
type Read struct {
	Name string
	Seq  []byte
}

// PairRead is one named FR mate pair arriving on a channel — the ingestion
// unit of MapPairStream. R1 and R2 are as sequenced (R2 reverse-complement
// oriented), exactly like ReadPair.
type PairRead struct {
	Name   string
	R1, R2 []byte
}

// mapChannel is mapSlabs fed from a channel. A collector goroutine numbers
// the records of in as they arrive, turns each into its queries through add
// (which rejects a malformed record), and cuts the sequence into slabs of
// perSlab records. It stays one slab ahead of the core — it collects the
// next slab while the core maps the current one — so decoding overlaps
// mapping and the run holds at most two slabs of reads, whatever the input
// size.
//
// in is read until its producer closes it on every path — when the core
// fails or a record is rejected, the rest is discarded — so a producer's
// sends never block; mapChannel returns once it is closed.
func mapChannel[T any](m *Mapper, in <-chan T, e, perSlab int,
	add func(sl *slab, id int, rec T) error) ([]Mapping, Stats, error) {

	slabs := make(chan *slab)
	stop := make(chan struct{}) // closed when the core takes no more slabs
	var addErr error
	go func() {
		defer close(slabs)
		defer drain(in)
		// Whether the input fills a slab is not known until it has, so a
		// collected slab starts empty and grows as its records arrive.
		sl := new(slab)
		n := 0
		for rec := range in {
			if addErr = add(sl, n, rec); addErr != nil {
				return
			}
			if n++; n%perSlab != 0 {
				continue
			}
			select {
			case slabs <- sl:
				sl = new(slab)
			case <-stop:
				return
			}
		}
		if len(sl.queries) > 0 {
			select {
			case slabs <- sl:
			case <-stop:
			}
		}
	}()
	mappings, st, err := m.mapSlabs(e, func() *slab { return <-slabs })
	close(stop)
	for range slabs { // closed by the collector once in is drained
	}
	if addErr != nil {
		// The malformed record is the root cause, whatever the core made of
		// the slabs before it.
		return nil, Stats{}, addErr
	}
	return mappings, st, err
}

// MapReadStream is the channel-fed MapReads: reads are validated and
// numbered as they arrive from in (a FASTQ decoder, a network source) and
// mapped slab by slab, Config.MaxReadsPerBatch reads at a time, while the
// next slab is being collected — the read set is never materialized, and
// the mapper drops a slab's reads once it is mapped.
//
// ReadIDs are assigned in arrival order, so the output is byte-identical
// to MapReads over the same records collected into a slice. The producer
// must close in; on a terminal error (wrong-length record, filter failure)
// the remaining input is drained and discarded so the producer never
// blocks.
func (m *Mapper) MapReadStream(in <-chan Read, e int) ([]Mapping, Stats, error) {
	return mapChannel(m, in, e, m.cfg.MaxReadsPerBatch, func(sl *slab, id int, r Read) error {
		if len(r.Seq) != m.cfg.ReadLen {
			return fmt.Errorf("mapper: streamed read %d (%q) has length %d, mapper built for %d",
				id, r.Name, len(r.Seq), m.cfg.ReadLen)
		}
		m.orient(sl, id, r.Seq)
		return nil
	})
}

// MapPairStream is the channel-fed MapPairs: mate pairs are validated and
// numbered as they arrive, mapped slab by slab as MapReadStream does (a
// pair's two mates always share a slab), and concordant pairs are resolved
// once the input ends. A zero-value win estimates the insert window from
// the mapped sample (EstimateInsertWindow), as MapPairs does.
//
// The producer must close in; on a terminal error the remaining input is
// drained and discarded so the producer never blocks. Output is identical
// to MapPairs over the same pairs collected into a slice.
func (m *Mapper) MapPairStream(in <-chan PairRead, e int, win InsertWindow) ([]PairMapping, Stats, error) {
	if err := checkInsertWindow(win, m.cfg.ReadLen); err != nil {
		drain(in)
		return nil, Stats{}, err
	}
	mappings, st, err := mapChannel(m, in, e, m.pairsPerSlab(), func(sl *slab, id int, p PairRead) error {
		if len(p.R1) != m.cfg.ReadLen || len(p.R2) != m.cfg.ReadLen {
			return fmt.Errorf("mapper: streamed pair %d (%q) has mate lengths %d/%d, mapper built for %d",
				id, p.Name, len(p.R1), len(p.R2), m.cfg.ReadLen)
		}
		m.orientPair(sl, id, p.R1, p.R2)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return m.resolveConcordant(mappings, win, st)
}

// drain discards the rest of a channel so its producer can finish sending
// and close it.
func drain[T any](ch <-chan T) {
	for range ch {
	}
}
