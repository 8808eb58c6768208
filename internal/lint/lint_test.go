package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden harness: each testdata package encodes its expected
// diagnostics as want comments — `// want "substr"` expects a diagnostic on
// that line whose message contains the substring, several quoted substrings
// expect several diagnostics, and `// want+N` shifts the expectation N
// lines down (for diagnostics on comment-only lines, where the marker
// itself would collide with the construct under test). The test fails in
// both directions: a missing diagnostic and an unexpected one are both
// errors, so the testdata pins each analyzer rule exactly.

var (
	wantRe   = regexp.MustCompile(`// want([+-]\d+)?\s+(.+)$`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

type wantKey struct {
	file string
	line int
}

func parseWants(t *testing.T, dir string) map[wantKey][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	wants := map[wantKey][]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want")
			if idx < 0 {
				continue
			}
			m := wantRe.FindStringSubmatch(line[idx:])
			if m == nil {
				t.Fatalf("%s:%d: malformed want comment: %s", e.Name(), i+1, line)
			}
			offset := 0
			if m[1] != "" {
				offset, _ = strconv.Atoi(m[1])
			}
			subs := quotedRe.FindAllStringSubmatch(m[2], -1)
			if len(subs) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted substrings", e.Name(), i+1)
			}
			k := wantKey{file: e.Name(), line: i + 1 + offset}
			for _, s := range subs {
				wants[k] = append(wants[k], s[1])
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, name string, cfg Config) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	m, err := LoadDir(dir, name)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants := parseWants(t, dir)
	for _, d := range Run(m, cfg) {
		k := wantKey{file: filepath.Base(d.Position.Filename), line: d.Position.Line}
		hit := -1
		for i, s := range wants[k] {
			if strings.Contains(d.Message, s) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:hit], wants[k][hit+1:]...)
	}
	for k, subs := range wants {
		for _, s := range subs {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", k.file, k.line, s)
		}
	}
}

func TestNoAllocGolden(t *testing.T) {
	runGolden(t, "noalloc", Config{
		Analyzers:          []Analyzer{NewNoAlloc()},
		ReportUnusedAllows: true,
	})
}

func TestCoordSafeGolden(t *testing.T) {
	// The testdata package mirrors the mapper's types under its own path,
	// so rule 2 (narrowing casts) is re-scoped to it; the receiver and
	// constructor whitelists are name-based and carry over unchanged.
	a := NewCoordSafe()
	a.NarrowPkgs = map[string]bool{"coordsafe": true}
	runGolden(t, "coordsafe", Config{
		Analyzers:          []Analyzer{a},
		ReportUnusedAllows: true,
	})
}

func TestErrCheckGolden(t *testing.T) {
	runGolden(t, "errcheck", Config{
		Analyzers:          []Analyzer{NewErrCheck()},
		ReportUnusedAllows: true,
	})
}

func TestLockCheckGolden(t *testing.T) {
	a := NewLockCheck()
	a.StreamPackages = map[string]bool{"lockcheck": true}
	runGolden(t, "lockcheck", Config{
		Analyzers:          []Analyzer{a},
		ReportUnusedAllows: true,
	})
}

func TestChanLifeGolden(t *testing.T) {
	a := NewChanLife()
	a.Packages = map[string]bool{"chanlife": true}
	runGolden(t, "chanlife", Config{
		Analyzers:          []Analyzer{a},
		ReportUnusedAllows: true,
	})
}

// testWrapCheck returns a WrapCheck re-scoped to the testdata package, with
// ErrBoom/ErrLost, the Fault type, and engine.setErr as the taxonomy.
func testWrapCheck() *WrapCheck {
	return &WrapCheck{
		Packages:   map[string]bool{"wrapcheck": true},
		Sentinels:  map[string]bool{"wrapcheck.ErrBoom": true, "wrapcheck.ErrLost": true},
		FaultTypes: map[string]bool{"wrapcheck.Fault": true},
		Sinks:      map[string]int{"wrapcheck.engine.setErr": 0},
		Module:     "wrapcheck",
	}
}

func TestWrapCheckGolden(t *testing.T) {
	runGolden(t, "wrapcheck", Config{
		Analyzers:          []Analyzer{testWrapCheck()},
		ReportUnusedAllows: true,
	})
}

// TestAllowAuditGolden pins the suppression auditor's edge cases: an allow
// above a statement spanning several lines, two suppressions for different
// analyzers sharing one comment, and the malformed-allow diagnostics
// (unknown analyzer name, missing justification).
func TestAllowAuditGolden(t *testing.T) {
	runGolden(t, "allowaudit", Config{
		Analyzers:          []Analyzer{NewNoAlloc(), NewErrCheck()},
		ReportUnusedAllows: true,
	})
}

// TestStaleScopeKeyIsAFinding misspells each kind of scope key once — a
// package path on every analyzer that has one, a sentinel, a fault type, a
// sink — and requires the whole-module check to name it: a key that resolves
// to nothing would otherwise switch its rule off with gklint still exiting 0.
func TestStaleScopeKeyIsAFinding(t *testing.T) {
	m, err := LoadDir(filepath.Join("testdata", "src", "wrapcheck"), "wrapcheck")
	if err != nil {
		t.Fatalf("loading wrapcheck testdata: %v", err)
	}
	if diags := checkScopeKeys(m, []Analyzer{testWrapCheck()}); len(diags) != 0 {
		t.Fatalf("every key of the testdata taxonomy resolves, yet: %v", diags)
	}
	stale := map[string]bool{"wrapchek": true}
	wrap := func(edit func(*WrapCheck)) Analyzer {
		a := testWrapCheck()
		edit(a)
		return a
	}
	for _, tc := range []struct {
		a         Analyzer
		key, kind string
	}{
		{&ChanLife{Packages: stale}, "wrapchek", "package"},
		{&LockCheck{StreamPackages: stale}, "wrapchek", "package"},
		{&CoordSafe{NarrowPkgs: stale}, "wrapchek", "package"},
		{wrap(func(a *WrapCheck) { a.Packages = stale }), "wrapchek", "package"},
		{wrap(func(a *WrapCheck) { a.Sentinels["wrapcheck.ErrBoon"] = true }), "wrapcheck.ErrBoon", "package-level error variable"},
		// A real name of the wrong kind is as stale as a typo.
		{wrap(func(a *WrapCheck) { a.Sentinels["wrapcheck.Fault"] = true }), "wrapcheck.Fault", "package-level error variable"},
		{wrap(func(a *WrapCheck) { a.FaultTypes["wrapcheck.Fautl"] = true }), "wrapcheck.Fautl", "named type"},
		{wrap(func(a *WrapCheck) { a.Sinks["wrapcheck.engine.setError"] = 0 }), "wrapcheck.engine.setError", "function"},
	} {
		diags := checkScopeKeys(m, []Analyzer{tc.a})
		if len(diags) != 1 {
			t.Errorf("%s with stale %s key %q: %d finding(s), want one: %v", tc.a.Name(), tc.kind, tc.key, len(diags), diags)
			continue
		}
		d := diags[0]
		if d.Analyzer != "lint" || !strings.Contains(d.Message, tc.a.Name()) ||
			!strings.Contains(d.Message, strconv.Quote(tc.key)) || !strings.Contains(d.Message, "no "+tc.kind+" ") {
			t.Errorf("%s with stale %s key %q: finding does not name it: %s", tc.a.Name(), tc.kind, tc.key, d)
		}
	}
}

// TestRunOrdersDiagnostics pins the deterministic output contract: Run
// returns diagnostics sorted by (file, line, column, analyzer), whatever
// order the analyzers reported them in.
func TestRunOrdersDiagnostics(t *testing.T) {
	lock := NewLockCheck()
	lock.StreamPackages = map[string]bool{"lockcheck": true}
	m, err := LoadDir(filepath.Join("testdata", "src", "lockcheck"), "lockcheck")
	if err != nil {
		t.Fatalf("loading lockcheck testdata: %v", err)
	}
	// Two analyzers interleave their findings across the same file.
	diags := Run(m, Config{Analyzers: []Analyzer{NewErrCheck(), lock}})
	if len(diags) < 2 {
		t.Fatalf("expected several diagnostics to order, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		ka := []string{a.Position.Filename, strconv.Itoa(a.Position.Line), strconv.Itoa(a.Position.Column), a.Analyzer}
		kb := []string{b.Position.Filename, strconv.Itoa(b.Position.Line), strconv.Itoa(b.Position.Column), b.Analyzer}
		less := a.Position.Filename < b.Position.Filename ||
			(a.Position.Filename == b.Position.Filename && (a.Position.Line < b.Position.Line ||
				(a.Position.Line == b.Position.Line && (a.Position.Column < b.Position.Column ||
					(a.Position.Column == b.Position.Column && a.Analyzer <= b.Analyzer)))))
		if !less {
			t.Errorf("diagnostics out of order: %v before %v", ka, kb)
		}
	}
}

// TestRepoIsLintClean is the self-test: gklint over this repository, with
// the registry cross-check and stale-suppression reporting on, must find
// nothing. This is exactly what cmd/gklint runs in CI.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("source-importer module load is slow; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(m, Config{
		Analyzers:          DefaultAnalyzers(),
		CheckRegistry:      true,
		ReportUnusedAllows: true,
	})
	for _, d := range diags {
		t.Errorf("gklint finding: %s", d)
	}
}

// TestNoAllocRegistry pins the registry lookup helpers the runtime alloc
// guards depend on.
func TestNoAllocRegistry(t *testing.T) {
	if !IsNoAlloc("repro/internal/filter", "Kernel.FilterEncoded") {
		t.Error("Kernel.FilterEncoded missing from NoAllocRegistry")
	}
	if !IsNoAlloc("repro/internal/mapper", "Index.Lookup") {
		t.Error("Index.Lookup missing from NoAllocRegistry")
	}
	if IsNoAlloc("repro/internal/filter", "Kernel.NoSuchMethod") {
		t.Error("IsNoAlloc reports an unregistered function as registered")
	}
	if got, want := len(NoAllocSet()), len(NoAllocRegistry); got != want {
		t.Errorf("NoAllocRegistry has duplicate entries: set %d, list %d", got, want)
	}
}
