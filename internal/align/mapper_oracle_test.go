package align_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/simdata"
)

// replayCIGAR walks a classic (M/I/D) CIGAR over query and window and
// returns the edits it implies — mismatched M columns plus gap columns — and
// the bases of each it consumed; ok is false on any other operation, an empty
// run or a run past either end.
func replayCIGAR(query, window []byte, cigar string) (edits, qLen, wLen int, ok bool) {
	run := 0
	for _, c := range []byte(cigar) {
		if c >= '0' && c <= '9' {
			run = run*10 + int(c-'0')
			continue
		}
		if run == 0 {
			return 0, 0, 0, false
		}
		switch c {
		case 'M':
			if qLen+run > len(query) || wLen+run > len(window) {
				return 0, 0, 0, false
			}
			for k := 0; k < run; k++ {
				if query[qLen+k] != window[wLen+k] {
					edits++
				}
			}
			qLen, wLen = qLen+run, wLen+run
		case 'I':
			qLen, edits = qLen+run, edits+run
		case 'D':
			wLen, edits = wLen+run, edits+run
		default:
			return 0, 0, 0, false
		}
		run = 0
	}
	return edits, qLen, wLen, run == 0 && qLen <= len(query) && wLen <= len(window)
}

// TestMapperCIGARsMatchOldTraceback is the traceback oracle one layer up and
// at the long-read shape — 300 bp indel-rich reads at e = 15 are five blocks
// of rows, where the 100 bp mapper tests are two. Every CIGAR the mapper
// reports must consume exactly its query and its reference window with
// exactly Distance edits and be the string the old traceback renders for the
// pair, on both strands, and the list must not depend on the verify width or
// the slab size (a verifier's Ops are scratch: a worker that kept them past
// its next Align would show here).
func TestMapperCIGARsMatchOldTraceback(t *testing.T) {
	const L, e, n = 300, 15, 48
	gcfg := simdata.DefaultGenomeConfig(120_000)
	gcfg.Seed = 18
	g := simdata.Genome(gcfg)
	sim, err := simdata.SimulateReads(g, simdata.SimSet1, n, 19)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, n)
	for i, r := range sim {
		seqs[i] = r.Seq
		if i%2 == 1 {
			seqs[i] = dna.ReverseComplement(r.Seq)
		}
	}
	var want []mapper.Mapping
	for _, workers := range []int{1, 8} {
		for _, batch := range []int{1, n} {
			m, err := mapper.New(g, mapper.Config{ReadLen: L, MaxE: e, SeedLen: 9, Traceback: true,
				BothStrands: true, StreamWorkers: workers, MaxReadsPerBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := m.MapReads(seqs, e)
			if err != nil {
				t.Fatal(err)
			}
			if want != nil {
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d batch=%d: mappings differ from the serial one-read-slab run", workers, batch)
				}
				continue
			}
			want = got
			var reverse, ins, del int
			for _, mp := range got {
				query := seqs[mp.ReadID]
				if mp.Reverse {
					query = dna.ReverseComplement(query)
					reverse++
				}
				window := g[mp.Pos : mp.Pos+L]
				edits, qLen, wLen, ok := replayCIGAR(query, window, mp.CIGAR)
				if !ok || qLen != L || wLen != L || edits != mp.Distance {
					t.Fatalf("%+v: CIGAR consumes %d read and %d window bases with %d edits (legal=%v), want %d, %d, %d",
						mp, qLen, wLen, edits, ok, L, L, mp.Distance)
				}
				old, ok := align.RefAlign(query, window, e)
				if !ok || old.Distance != mp.Distance || old.CIGARCompat() != mp.CIGAR {
					t.Fatalf("%+v: old traceback gives (%d, %s, %v)", mp, old.Distance, old.CIGARCompat(), ok)
				}
				if strings.Contains(mp.CIGAR, "I") {
					ins++
				}
				if strings.Contains(mp.CIGAR, "D") {
					del++
				}
			}
			if len(got) < n*3/4 || reverse < n/4 || ins < n/8 || del < n/4 {
				t.Fatalf("%d mappings, %d reverse, %d with insertions, %d with deletions: the reads do not exercise the traceback", len(got), reverse, ins, del)
			}
		}
	}
}
