package mapper

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/simdata"
)

// failingReader yields its payload, then fails every subsequent Read.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestMapReadStreamFASTQMidStreamIOError(t *testing.T) {
	// The gkmap ingestion shape: a producer decodes FASTQ incrementally and
	// feeds MapReadStream. When the reader dies after N records, the decoder's
	// line-numbered error is the root cause the producer reports, and the
	// mappings for every record emitted before the failure are exactly what
	// mapping those records alone produces.
	g := testGenome(60_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 30, 25)
	if err != nil {
		t.Fatal(err)
	}
	const survive = 20
	var payload bytes.Buffer
	for i := 0; i < survive; i++ {
		fmt.Fprintf(&payload, "@r%d\n%s\n+\n%s\n", i, reads[i].Seq, strings.Repeat("I", len(reads[i].Seq)))
	}
	boom := errors.New("read: input/output error")

	m, err := New(g, Config{ReadLen: 100, MaxE: 5, StreamWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Read)
	feedErr := make(chan error, 1)
	go func() {
		defer close(ch)
		sc := dna.NewFASTQScanner(&failingReader{data: payload.Bytes(), err: boom})
		for sc.Scan() {
			rec := sc.Record()
			ch <- Read{Name: rec.Name, Seq: rec.Seq}
		}
		feedErr <- sc.Err()
	}()
	got, st, err := m.MapReadStream(ch, 5)
	if err != nil {
		t.Fatalf("partial stream mapped with error: %v", err)
	}
	ferr := <-feedErr
	if !errors.Is(ferr, boom) {
		t.Fatalf("producer lost the underlying I/O error: %v", ferr)
	}
	if !strings.Contains(ferr.Error(), fmt.Sprintf("line %d", 4*survive+1)) {
		t.Fatalf("producer error not line-numbered at the failure point: %v", ferr)
	}
	if st.Reads != survive {
		t.Fatalf("mapped %d reads, want the %d decoded before the failure", st.Reads, survive)
	}

	seqs := make([][]byte, survive)
	for i := range seqs {
		seqs[i] = reads[i].Seq
	}
	want, _, err := m.MapReads(seqs, 5)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualMappings(t, got, want, "pre-failure mappings")
}

func TestMapReadStreamPropagatesFaultTaxonomy(t *testing.T) {
	// A device lost under the streaming pre-alignment filter must surface
	// through MapReadStream as the gkgpu taxonomy — program-level callers
	// (gkmap's exit path) route on these sentinels — and the producer must
	// still be fully drained.
	g := testGenome(60_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 60, 26)
	if err != nil {
		t.Fatal(err)
	}
	cctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048,
		StreamBatchPairs: 32, Fault: gkgpu.FaultPolicy{MaxAttempts: 1}}, cctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	m, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: eng, StreamWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).Kill())

	ch := make(chan Read) // unbuffered: a stuck consumer would deadlock this test
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		for i, r := range reads {
			ch <- Read{Name: fmt.Sprintf("r%d", i), Seq: r.Seq}
		}
	}()
	_, _, err = m.MapReadStream(ch, 5)
	if err == nil {
		t.Fatal("dead filter device produced a clean mapping run")
	}
	if !errors.Is(err, gkgpu.ErrStreamAborted) || !errors.Is(err, gkgpu.ErrDeviceLost) {
		t.Fatalf("taxonomy lost through the mapper: %v", err)
	}
	var df *gkgpu.DeviceFault
	if !errors.As(err, &df) {
		t.Fatalf("first classified fault not exposed through the mapper: %v", err)
	}
	<-done // producer finished every send despite the terminal filter failure
}

func TestMapPairStreamPropagatesFaultTaxonomy(t *testing.T) {
	g := testGenome(60_000)
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 40, 400, 40, 27)
	if err != nil {
		t.Fatal(err)
	}
	cctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048,
		StreamBatchPairs: 32, Fault: gkgpu.FaultPolicy{MaxAttempts: 1}}, cctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	m, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: eng, StreamWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).Kill())

	ch := make(chan PairRead)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		for i, p := range simPairs {
			ch <- PairRead{Name: fmt.Sprintf("p%d", i), R1: p.R1.Seq, R2: p.R2.Seq}
		}
	}()
	_, _, err = m.MapPairStream(ch, 5, InsertWindow{Min: 240, Max: 560})
	if err == nil {
		t.Fatal("dead filter device produced a clean paired run")
	}
	if !errors.Is(err, gkgpu.ErrStreamAborted) || !errors.Is(err, gkgpu.ErrDeviceLost) {
		t.Fatalf("taxonomy lost through the paired mapper: %v", err)
	}
	<-done
}

func TestMapReadsPropagatesOneShotFaultTaxonomy(t *testing.T) {
	// The non-streaming path classifies too: FilterPairs faults reach
	// MapReads callers as gkgpu sentinels.
	g := testGenome(60_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 40, 28)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	cctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048}, cctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	m, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: eng})
	if err != nil {
		t.Fatal(err)
	}
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).Kill())
	if _, _, err := m.MapReads(seqs, 5); !errors.Is(err, gkgpu.ErrDeviceLost) {
		t.Fatalf("one-shot path lost the taxonomy: %v", err)
	}
}

func TestMapReadStreamSurvivesDeviceDeath(t *testing.T) {
	// Device-fault recovery lives in the engine's FilterCandidates, so every
	// entry point has it: a channel-fed run of several slabs, one of its two
	// devices dying at its second slab, maps exactly what a fault-free run
	// maps, and the loss shows only in the engine's fault counters.
	g := testGenome(60_000)
	seqs := simulatedSeqs(t, g, 60)
	run := func(plan *cuda.FaultPlan) ([]Mapping, Stats, gkgpu.Stats) {
		cctx := cuda.NewUniformContext(2, cuda.GTX1080Ti())
		eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048}, cctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		m, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: eng, MaxReadsPerBatch: 12, StreamWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		cctx.Device(1).InjectFaults(plan)
		mappings, st, err := m.MapReadStream(feedReads(seqs), 5)
		if err != nil {
			t.Fatalf("run with a surviving device failed: %v", err)
		}
		return mappings, st, eng.Stats()
	}
	want, wantSt, clean := run(nil)
	got, gotSt, faulted := run(cuda.NewFaultPlan(1).DieAtLaunch(2))
	if clean.Batches < 4 {
		t.Fatalf("only %d filtering rounds; the death would not land mid-run", clean.Batches)
	}
	mustEqualMappings(t, got, want, "mappings after a device death")
	if !sameCounters(gotSt, wantSt) {
		t.Fatalf("counters drifted:\n got %+v\nwant %+v", gotSt, wantSt)
	}
	if faulted.DevicesLost != 1 || faulted.Redispatches == 0 {
		t.Fatalf("device death not counted: %+v", faulted)
	}
}
