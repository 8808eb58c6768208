package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A golden test re-scopes its analyzer to a synthetic package, so it cannot
// notice a production scope key or registry entry that stopped matching the
// tree — and a clean TestRepoIsLintClean is also what an inert analyzer
// prints. TestAnalyzersCatchMutationsOfRealCode closes that gap: it copies
// the module's production files to a temp dir, breaks the real subject of
// each surviving rule with one exact-match textual edit, runs gklint's own
// configuration over the copy, and requires exactly the findings below —
// nothing missing, nothing extra.

// want is one expected finding, in the mutated file.
type want struct{ analyzer, substr string }

// mutation is one edit of production code. old must occur exactly once in
// file, so the table follows the code: a refactor that moves a rule's subject
// fails here until the row is pointed at the new one.
type mutation struct {
	rule     string
	file     string
	old, new string
	wants    []want
}

var mutations = []mutation{
	{
		rule:  "chanlife 1: a send sits under a select with a drain arm (gkgpu.emit)",
		file:  "internal/gkgpu/stream.go",
		old:   "\t\tselect {\n\t\tcase out <- r:\n\t\tcase <-ctx.Done():\n\t\t\treturn false\n\t\t}\n",
		new:   "\t\tout <- r\n",
		wants: []want{{"chanlife", "channel send outside a select"}},
	},
	{
		rule:  "chanlife 2: a channel is closed at most once per path (mapChannel's stop)",
		file:  "internal/mapper/readstream.go",
		old:   "\tclose(stop)\n",
		new:   "\tclose(stop)\n\tclose(stop)\n",
		wants: []want{{"chanlife", "stop may already be closed"}},
	},
	{
		rule: "chanlife 2, deferred: an explicit close beside the collector's deferred one",
		file: "internal/mapper/readstream.go",
		old:  "\t\tif len(sl.queries) > 0 {\n",
		new:  "\t\tclose(slabs)\n\t\tif len(sl.queries) > 0 {\n",
		wants: []want{
			{"chanlife", "slabs has a deferred close pending"},
			// The collector's last send now follows a close: rule 3.
			{"chanlife", "send on slabs is reachable after its close"},
		},
	},
	{
		rule:  "chanlife 4: WaitGroup.Add before the go it accounts for (Engine.eachShare)",
		file:  "internal/gkgpu/engine.go",
		old:   "\t\twg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n",
		new:   "\t\tgo func() {\n\t\t\twg.Add(1)\n\t\t\tdefer wg.Done()\n",
		wants: []want{{"chanlife", "WaitGroup.Add inside the spawned goroutine"}},
	},
	{
		rule:  "chanlife 4 at internal/par's scope key (par.For)",
		file:  "internal/par/par.go",
		old:   "\t\twg.Add(1)\n\t\tgo func(w int) {\n\t\t\tdefer wg.Done()\n",
		new:   "\t\tgo func(w int) {\n\t\t\twg.Add(1)\n\t\t\tdefer wg.Done()\n",
		wants: []want{{"chanlife", "WaitGroup.Add inside the spawned goroutine"}},
	},
	{
		rule:  "chanlife 5: no time.Sleep (launchWithRetry's backoff)",
		file:  "internal/gkgpu/engine.go",
		old:   "\t\tt := time.NewTimer(backoff)\n\t\tselect {\n\t\tcase <-t.C:\n\t\tcase <-ctx.Done():\n\t\t\tt.Stop()\n\t\t\treturn retries, false, fault\n\t\t}\n",
		new:   "\t\ttime.Sleep(backoff)\n",
		wants: []want{{"chanlife", "time.Sleep cannot observe cancellation"}},
	},
	{
		rule:  "lockcheck 1: released on every path out (Engine.FilterCandidates)",
		file:  "internal/gkgpu/reference.go",
		old:   "\t// is gone (or of another length) by the time the round runs.\n\te.runMu.Lock()\n\tdefer e.runMu.Unlock()\n",
		new:   "\t// is gone (or of another length) by the time the round runs.\n\te.runMu.Lock()\n",
		wants: []want{{"lockcheck", "e.runMu acquired here is not released on every path"}},
	},
	{
		rule: "lockcheck 2: no second acquisition (Engine.StreamErr)",
		file: "internal/gkgpu/stream.go",
		old:  "\tdefer e.statsMu.Unlock()\n\treturn e.streamErr\n",
		new:  "\tdefer e.statsMu.Unlock()\n\te.statsMu.Lock()\n\treturn e.streamErr\n",
		wants: []want{
			{"lockcheck", "e.statsMu may already be held here"},
			// The deferred unlock answers the first Lock only: rule 1 as well.
			{"lockcheck", "e.statsMu acquired here is not released on every path"},
		},
	},
	{
		// The pre-PR-21 shape: a stream that sits on runMu while it waits for
		// its producer. A liveness bug, not a data race: -race cannot see it.
		// (The rule is intra-procedural, so the lock has to span one of
		// runStream's own channel operations — its drain loop — not just the
		// call to collectBatch.)
		rule:  "lockcheck 3: no lock across a blocking operation (runStream)",
		file:  "internal/gkgpu/stream.go",
		old:   "\tdefer close(out)\n",
		new:   "\tdefer close(out)\n\te.runMu.Lock()\n\tdefer e.runMu.Unlock()\n",
		wants: []want{{"lockcheck", "e.runMu is held across a blocking range over a channel"}},
	},
	{
		rule:  "wrapcheck: fault paths wrap a sentinel with %w (abortedBy)",
		file:  "internal/gkgpu/fault.go",
		old:   `fmt.Errorf("%w: %w", ErrStreamAborted, fault)`,
		new:   `fmt.Errorf("%v: %v", ErrStreamAborted, fault)`,
		wants: []want{{"wrapcheck", "returned fault-path error is a fresh error outside the fault taxonomy"}},
	},
	{
		rule:  "wrapcheck: what enters the declared sink is in the taxonomy (runStream)",
		file:  "internal/gkgpu/stream.go",
		old:   "\te.setStreamErr(failure)\n",
		new:   "\te.setStreamErr(fmt.Errorf(\"gkgpu: stream ended\"))\n",
		wants: []want{{"wrapcheck", "error passed to the stream fault sink is a fresh error"}},
	},
	{
		rule:  "wrapcheck: package-level errors are registered sentinels (cuda)",
		file:  "internal/cuda/fault.go",
		old:   "// FaultOp identifies",
		new:   "var errAdHoc = errors.New(\"cuda: ad hoc\")\n\n// FaultOp identifies",
		wants: []want{{"wrapcheck", "package-level error errAdHoc is not in the declared sentinel registry"}},
	},
	{
		rule:  "coordsafe: no 32-bit narrowing of a reference position (mapper's verify loop)",
		file:  "internal/mapper/mapper.go",
		old:   "m.ref.locate(int(c.Pos))",
		new:   "m.ref.locate(int(int32(c.Pos)))",
		wants: []want{{"coordsafe", "narrowing cast int32(...)"}},
	},
	{
		rule:  "errcheck: bufio's sticky error surfaces at Flush (WriteSAM)",
		file:  "internal/mapper/sam.go",
		old:   "seq: reads[m.ReadID], revComp: m.Reverse, nm: m.Distance}); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n\treturn sw.bw.Flush()\n",
		new:   "seq: reads[m.ReadID], revComp: m.Reverse, nm: m.Distance}); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n\tsw.bw.Flush()\n\treturn nil\n",
		wants: []want{{"errcheck", "Flush"}},
	},
	// The three shapes deferhot's golden package held. noalloc reports each:
	// it bans every defer and escaping closure in an annotated function, loop
	// or not, and every call that would leave the annotated set.
	{
		rule: "noalloc: a defer in Kernel.FilterPlanes' block loop",
		file: "internal/filter/gatekeeper.go",
		old:  "\tfor b := range blocks {\n\t\tbase := b*blockCols - guardCols\n",
		new:  "\tfor b := range blocks {\n\t\tdefer func() {}()\n\t\tbase := b*blockCols - guardCols\n",
		wants: []want{
			{"noalloc", "defer in noalloc function FilterPlanes"},
			{"noalloc", "closure in noalloc function FilterPlanes may escape"},
			{"noalloc", "call through a function value in noalloc function FilterPlanes"},
		},
	},
	{
		rule:  "noalloc: a non-inlined closure in candidateRange's loop",
		file:  "internal/gkgpu/reference.go",
		old:   "\t\tcd := cands[i]\n\t\tif readHasN[cd.ReadID] || ref.hasN(cd.Pos, L) {\n",
		new:   "\t\tcd := cands[i]\n\t\tnote := func() {}\n\t\t_ = note\n\t\tif readHasN[cd.ReadID] || ref.hasN(cd.Pos, L) {\n",
		wants: []want{{"noalloc", "closure in noalloc function candidateRange may escape"}},
	},
	{
		rule:  "noalloc: a call from candidateRange out of the annotated set, to a helper that defers in a loop",
		file:  "internal/gkgpu/reference.go",
		old:   "\t\treadLo, readHi := readPlanes(planes, cd.ReadID, planeWords)\n\t\test, accept := kern.FilterPlanes(readLo, readHi, ref.lo, ref.hi, planeOff(cd.Pos), errThreshold)\n\t\tout[i] = Result{Accept: accept, Estimate: uint16(est)}\n\t}\n}\n",
		new:   "\t\treadLo, readHi := readPlanes(planes, cd.ReadID, planeWords)\n\t\test, accept := kern.FilterPlanes(readLo, readHi, ref.lo, ref.hi, planeOff(cd.Pos), errThreshold)\n\t\tout[i] = Result{Accept: accept, Estimate: uint16(est)}\n\t\tdefersInLoop(i)\n\t}\n}\n\nfunc defersInLoop(n int) {\n\tfor i := 0; i < n; i++ {\n\t\tdefer func() {}()\n\t}\n}\n",
		wants: []want{{"noalloc", "call to repro/internal/gkgpu.defersInLoop, which is not //gk:noalloc"}},
	},
}

func TestAnalyzersCatchMutationsOfRealCode(t *testing.T) {
	if testing.Short() {
		t.Skip("source-importer module load is slow; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	tmp := t.TempDir()
	copyProductionFiles(t, root, tmp)

	// The rows type-check together, so one copy and one load carry them all.
	type expectation struct {
		want
		rule, file string
	}
	var expect []expectation
	for _, mu := range mutations {
		path := filepath.Join(tmp, mu.file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", mu.rule, err)
		}
		if n := strings.Count(string(data), mu.old); n != 1 {
			t.Fatalf("%s: mutation no longer applies: its old text occurs %d times in %s, want exactly once — point the row at the rule's subject as it is now", mu.rule, n, mu.file)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(data), mu.old, mu.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, w := range mu.wants {
			expect = append(expect, expectation{want: w, rule: mu.rule, file: mu.file})
		}
	}

	m, err := LoadModule(tmp)
	if err != nil {
		t.Fatalf("loading the mutated copy (the rows must type-check together): %v", err)
	}
	diags := Run(m, Config{
		Analyzers:          DefaultAnalyzers(),
		CheckRegistry:      true,
		ReportUnusedAllows: true,
	})
	for _, d := range diags {
		file := d.Position.Filename
		if rel, err := filepath.Rel(tmp, file); err == nil && filepath.IsLocal(rel) {
			file = filepath.ToSlash(rel)
		}
		hit := -1
		for i, e := range expect {
			if e.file == file && e.analyzer == d.Analyzer && strings.Contains(d.Message, e.substr) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("finding no mutation asked for: %s", d)
			continue
		}
		expect = append(expect[:hit], expect[hit+1:]...)
	}
	for _, e := range expect {
		t.Errorf("%s: no %s finding containing %q in %s — the rule did not bite its production subject", e.rule, e.analyzer, e.substr, e.file)
	}
}

// copyProductionFiles copies what LoadModule reads — go.mod and every
// package's non-test Go files — from root to dst.
func copyProductionFiles(t *testing.T, root, dst string) {
	t.Helper()
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	files := []string{filepath.Join(root, "go.mod")}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				files = append(files, filepath.Join(dir, name))
			}
		}
	}
	for _, src := range files {
		rel, err := filepath.Rel(root, src)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
