package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/mapper"
)

// config is one way of mapping the workload's reads through the mapper's
// public entry points. Each is one end-to-end throughput metric.
type config int

const (
	oneshotNone config = iota // Mapper.MapReads, no filter
	oneshotCPU                // Mapper.MapReads, gkgpu.CPUEngine
	oneshotGPU                // Mapper.MapReads, gkgpu.Engine
	streamCPU                 // Mapper.MapReadStream, gkgpu.CPUEngine
	streamGPU                 // Mapper.MapReadStream, gkgpu.Engine
	fileSAM                   // gkmap file mode: FASTQScanner -> MapReadStream (gpu, Traceback) -> WriteSAM
	nConfigs
)

var configNames = [nConfigs]string{
	"oneshot_none", "oneshot_cpu", "oneshot_gpu", "stream_cpu", "stream_gpu", "file_sam",
}

func (c config) metric() string { return configNames[c] + "_reads_per_s" }

// feedDepth is the channel depth gkmap feeds MapReadStream through.
const feedDepth = 256

// hashCounter is the SAM sink: it hashes and counts, so output costs what
// formatting costs and no disk is measured.
type hashCounter struct {
	h hash.Hash
	n int64
}

func newHashCounter() *hashCounter { return &hashCounter{h: sha256.New()} }

func (c *hashCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

type digest [sha256.Size]byte

func (c *hashCounter) sum() digest {
	var d digest
	c.h.Sum(d[:0])
	return d
}

// mappingWords is the identity the gate compares: (read, contig, pos,
// distance, strand). CIGARs are covered by the SAM byte comparison.
func mappingWords(m mapper.Mapping) [5]uint64 {
	var strand uint64
	if m.Reverse {
		strand = 1
	}
	return [5]uint64{uint64(m.ReadID), uint64(m.Contig), uint64(m.Pos), uint64(m.Distance), strand}
}

func digestMappings(ms []mapper.Mapping) digest {
	buf := make([]byte, 0, 40*len(ms))
	for _, m := range ms {
		for _, w := range mappingWords(m) {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return sha256.Sum256(buf)
}

// perReadSums folds each read's mappings, in list order, into one word per
// read, so two lists can be compared read by read. A mapping naming a read
// outside [0, n) lands in the extra last slot.
func perReadSums(ms []mapper.Mapping, n int) []uint64 {
	sums := make([]uint64, n+1)
	for _, m := range ms {
		id := m.ReadID
		if id < 0 || id >= n {
			id = n
		}
		for _, w := range mappingWords(m) {
			sums[id] = (sums[id] ^ w) * 1099511628211 // FNV-1a prime
		}
		sums[id]++ // a read with mappings never sums to the empty read's 0
	}
	return sums
}

// diffReads counts the reads whose mapping set differs between two lists.
func diffReads(want, got []uint64) int {
	n := 0
	for i := range want {
		if want[i] != got[i] {
			n++
		}
	}
	return n
}

// rig is one workload set up for measurement: four mappers over the same
// reference (no filter, CPU engine, GPU engine, GPU engine with traceback)
// and the no-filter reference output every run is checked against.
type rig struct {
	in *inputs

	none, cpu, gpu, tb *mapper.Mapper
	cpuEng             *gkgpu.CPUEngine
	gpuEng, tbEng      *gkgpu.Engine

	setupWalls  []float64
	heapInuseMB float64

	refDigest digest
	refSums   []uint64
	refSAM    digest
	recall    float64
}

func (r *rig) mapperFor(c config) *mapper.Mapper {
	switch c {
	case oneshotNone:
		return r.none
	case oneshotCPU, streamCPU:
		return r.cpu
	case oneshotGPU, streamGPU:
		return r.gpu
	}
	return r.tb
}

func mapperConfig(wl workload, traceback bool) mapper.Config {
	return mapper.Config{ReadLen: wl.Profile.Length, MaxE: wl.E, SeedLen: wl.SeedLen,
		BothStrands: wl.BothStrands, Traceback: traceback}
}

// setupGPU is the set-up gkmap does before the first read with its default
// prefilter: engine construction, index build, reference load into the
// engine. It is what setup_s times.
func setupGPU(in *inputs, traceback bool) (*mapper.Mapper, *gkgpu.Engine, error) {
	eng, err := gkgpu.NewEngine(gkgpu.Config{
		ReadLen: in.wl.Profile.Length, MaxE: in.wl.E, Encoding: gkgpu.EncodeOnDevice, MaxBatchPairs: 1 << 16,
	}, cuda.NewUniformContext(1, cuda.GTX1080Ti()))
	if err != nil {
		return nil, nil, err
	}
	cfg := mapperConfig(in.wl, traceback)
	cfg.Filter = eng
	m, err := mapper.NewFromReference(in.ref, cfg)
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	return m, eng, nil
}

// setupSlot is how long each measurement cycle spends timing set-ups.
const setupSlot = 0.1

// timeSetups sets the workload up again and again for about seconds (once at
// least), timing each and discarding the product. Set-ups are timed inside
// the measurement cycles, not in one burst before them, so that a phase of
// interference tens of seconds long cannot cover every sample; a 400 kb
// index builds in 13 ms, so a slot holds several.
func (r *rig) timeSetups(seconds float64) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		runtime.GC()
		t0 := time.Now()
		_, eng, err := setupGPU(r.in, false)
		r.setupWalls = append(r.setupWalls, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		eng.Close()
	}
	return nil
}

// newRig sets the workload up (timing the gpu set-up once; measure times it
// again in every cycle), builds the other three mappers and computes the
// reference output.
func newRig(in *inputs) (*rig, error) {
	r := &rig{in: in}
	fail := func(err error) (*rig, error) {
		r.close()
		return nil, fmt.Errorf("workload %s: set-up: %w", in.wl.Name, err)
	}
	t0 := time.Now()
	var err error
	r.gpu, r.gpuEng, err = setupGPU(in, false)
	r.setupWalls = append(r.setupWalls, time.Since(t0).Seconds())
	if err != nil {
		return fail(err)
	}
	if r.none, err = mapper.NewFromReference(in.ref, mapperConfig(in.wl, false)); err != nil {
		return fail(err)
	}
	if r.cpuEng, err = gkgpu.NewCPUEngine(in.wl.Profile.Length, in.wl.E, 12, gkgpu.Setup1(), cuda.DefaultCostModel()); err != nil {
		return fail(err)
	}
	cfg := mapperConfig(in.wl, false)
	cfg.Filter = r.cpuEng
	if r.cpu, err = mapper.NewFromReference(in.ref, cfg); err != nil {
		return fail(err)
	}
	if r.tb, r.tbEng, err = setupGPU(in, true); err != nil {
		return fail(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapInuseMB = float64(ms.HeapInuse) / 1e6

	// Reference output: the no-filter one-shot mapping list, and the SAM
	// bytes of MapReads + Traceback + WriteSAM.
	ref, _, err := r.none.MapReads(in.seqs, in.wl.E)
	if err != nil {
		return fail(err)
	}
	r.refDigest = digestMappings(ref)
	r.refSums = perReadSums(ref, len(in.seqs))
	r.recall = recall(ref, in)
	tbMaps, _, err := r.tb.MapReads(in.seqs, in.wl.E)
	if err != nil {
		return fail(err)
	}
	names := make([]string, len(in.seqs))
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	hc := newHashCounter()
	if err := mapper.WriteSAM(hc, in.ref, names, in.seqs, tbMaps); err != nil {
		return fail(err)
	}
	r.refSAM = hc.sum()
	return r, nil
}

func (r *rig) close() {
	for _, eng := range []*gkgpu.Engine{r.gpuEng, r.tbEng} {
		if eng != nil {
			eng.Close()
		}
	}
}

// recall is the share of reads with a reported forward mapping within e of
// the simulated origin.
func recall(ms []mapper.Mapping, in *inputs) float64 {
	hit := make([]bool, len(in.sim))
	for _, m := range ms {
		if m.Reverse || m.ReadID < 0 || m.ReadID >= len(hit) {
			continue
		}
		if d := m.Pos - in.sim[m.ReadID].TruePos; d >= -in.wl.E && d <= in.wl.E {
			hit[m.ReadID] = true
		}
	}
	n := 0
	for _, h := range hit {
		if h {
			n++
		}
	}
	return float64(n) / float64(len(hit))
}

// runOut is one pass of the workload's reads through one configuration.
type runOut struct {
	mappings []mapper.Mapping
	stats    mapper.Stats
	sam      *hashCounter // fileSAM only
	wall     float64      // seconds around the program's calls only
	err      error
}

func (r *rig) run(c config) runOut { return r.runOn(r.mapperFor(c), c) }

// runOn is run on a given mapper (the width-2 probe brings its own).
func (r *rig) runOn(m *mapper.Mapper, c config) runOut {
	e := r.in.wl.E
	var out runOut
	switch c {
	case oneshotNone, oneshotCPU, oneshotGPU:
		t0 := time.Now()
		out.mappings, out.stats, out.err = m.MapReads(r.in.seqs, e)
		out.wall = time.Since(t0).Seconds()
	case streamCPU, streamGPU:
		t0 := time.Now()
		ch := make(chan mapper.Read, feedDepth)
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			defer close(ch)
			for _, s := range r.in.seqs {
				ch <- mapper.Read{Seq: s} // MapReadStream drains ch on every path
			}
		}()
		out.mappings, out.stats, out.err = m.MapReadStream(ch, e)
		out.wall = time.Since(t0).Seconds()
		<-fed
	case fileSAM:
		t0 := time.Now()
		sc := dna.NewFASTQScanner(bytes.NewReader(r.in.fastq))
		ch := make(chan mapper.Read, feedDepth)
		fed := make(chan struct{})
		var seqs [][]byte
		var names []string
		var feedErr error
		go func() {
			defer close(fed)
			defer close(ch)
			for sc.Scan() {
				rec := sc.Record()
				seqs = append(seqs, rec.Seq)
				names = append(names, rec.Name)
				ch <- mapper.Read{Name: rec.Name, Seq: rec.Seq} // drained on every path, as above
			}
			feedErr = sc.Err()
		}()
		out.mappings, out.stats, out.err = m.MapReadStream(ch, e)
		<-fed
		if feedErr != nil {
			out.err = feedErr
		}
		if out.err == nil {
			out.sam = newHashCounter()
			out.err = mapper.WriteSAM(out.sam, r.in.ref, names, seqs, out.mappings)
		}
		out.wall = time.Since(t0).Seconds()
	}
	return out
}

// check is the correctness gate. One read through one configuration is one
// operation; it returns how many of the run's operations failed: all of
// them when the call erred, otherwise the reads whose mapping set differs
// from the no-filter reference, and at least one when the SAM bytes differ
// from MapReads + Traceback + WriteSAM.
func (r *rig) check(c config, out runOut) int {
	n := len(r.in.seqs)
	if out.err != nil {
		return n
	}
	failed := 0
	if digestMappings(out.mappings) != r.refDigest {
		failed = max(1, diffReads(r.refSums, perReadSums(out.mappings, n)))
	}
	if c == fileSAM && out.sam.sum() != r.refSAM {
		failed = max(failed, 1)
	}
	return failed
}

// e2eResult is the end-to-end measurement of one workload.
type e2eResult struct {
	walls     [nConfigs][]float64 // timed reps, in order
	attempted int64
	failed    int64
	firstErr  error
}

// measure runs the six configurations and a slot of set-ups round-robin: one
// warm-up cycle, then reps timed cycles, or when seconds > 0 as many cycles
// as fit (three at least). Every run, the warm-up included, goes through the
// gate.
func (r *rig) measure(reps int, seconds float64) e2eResult {
	var res e2eResult
	cycle := func(timed bool) {
		if err := r.timeSetups(setupSlot); err != nil && res.firstErr == nil {
			res.firstErr = fmt.Errorf("%s set-up: %w", r.in.wl.Name, err)
		}
		for c := config(0); c < nConfigs; c++ {
			runtime.GC() // each run starts from the same heap, whatever ran before it
			out := r.run(c)
			if timed {
				res.walls[c] = append(res.walls[c], out.wall)
			}
			res.attempted += int64(len(r.in.seqs))
			res.failed += int64(r.check(c, out))
			if out.err != nil && res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s %s: %w", r.in.wl.Name, configNames[c], out.err)
			}
		}
	}
	cycle(false)
	start := time.Now()
	for n := 0; ; n++ {
		if seconds > 0 {
			if n >= 3 && time.Since(start).Seconds() >= seconds {
				break
			}
		} else if n >= reps {
			break
		}
		cycle(true)
	}
	return res
}
