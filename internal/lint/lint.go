// Package lint implements gklint, the repo's static-analysis suite. It
// machine-checks the invariants the performance and correctness claims rest
// on — invariants that runtime tests can only spot-check at a few call
// sites. Six analyzers; three judge one statement at a time:
//
//   - noalloc: functions annotated //gk:noalloc must not contain allocating
//     constructs (defer, go and escaping closures among them) and call only
//     annotated module functions, so the guarantee closes over its own call
//     cone. This is the static complement of the AllocsPerRun guards: the
//     runtime guards prove three call sites allocation-free, the analyzer
//     proves every call site of every annotated function.
//   - coordsafe: the multi-contig coordinate discipline of PR 5 — no direct
//     reads of Reference offset internals, no narrowing casts of position
//     values, no arithmetic mixing contig-relative Pos with global offsets —
//     outside the whitelisted mapper.Reference accessors.
//   - errcheck: no silently discarded error returns.
//
// Three are flow-sensitive, built on a shared CFG and forward-dataflow
// engine (cfg.go):
//
//   - lockcheck: every Lock released on every path out, no double-lock of
//     the same receiver, and (in the streaming packages) no lock held across
//     a blocking operation.
//   - chanlife: in the packages that start goroutines or own channels, a
//     send sits under a select with a receive or default arm, a channel is
//     closed at most once per path and never sent on after a reachable
//     close, WaitGroup.Add runs before the go it accounts for, and nothing
//     calls time.Sleep.
//   - wrapcheck: fault-path errors stay inside the declared sentinel
//     taxonomy — constructed errors wrap a sentinel with %w or build a
//     declared fault type, and errors.Is/As targets are declared sentinels.
//
// A rule is here because production code has a subject for it, and
// TestAnalyzersCatchMutationsOfRealCode proves each one live at its
// production scope by breaking that subject; docs/lint.md has the table.
//
// Diagnostics are positional (file:line:col: analyzer: message) and
// suppressible only by a //gk:allow <analyzer>: <reason> comment on the
// flagged line or the line above; a justification is mandatory. The package
// uses only the standard library (go/parser, go/ast, go/types with the
// source importer), honouring the repo's zero-dependency constraint.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: where, which analyzer, and what.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String renders the canonical file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// Analyzer is one lint pass over a type-checked package.
type Analyzer interface {
	Name() string
	Check(c *Context)
}

// Context is what an analyzer sees for one package: the syntax and type
// information, the module-wide //gk:noalloc annotation set, and a reporter.
type Context struct {
	Pkg *Package
	// All is every package of the loaded module, for analyses that need a
	// module-wide view (call-graph reachability, cross-package helpers).
	All []*Package
	// Fset positions module syntax, for messages that reference a second
	// location.
	Fset *token.FileSet
	// Module is the module path; calls into packages under it are
	// module-internal (noalloc requires their callees to be annotated too).
	Module string
	// NoAlloc is the module-wide set of annotated functions, keyed by
	// FuncKey. It spans packages: an annotated function may call annotated
	// functions of other packages.
	NoAlloc map[string]token.Pos

	report func(analyzer string, pos token.Pos, msg string)
}

// Reportf records one diagnostic for the named analyzer.
func (c *Context) Reportf(analyzer string, pos token.Pos, format string, args ...any) {
	c.report(analyzer, pos, fmt.Sprintf(format, args...))
}

// Config configures one lint run.
type Config struct {
	Analyzers []Analyzer
	// CheckRegistry cross-checks the //gk:noalloc annotations found in the
	// source against the canonical NoAllocRegistry, in both directions, so
	// the static analyzer and the runtime AllocsPerRun guards cannot drift,
	// and requires every analyzer scope key (a package path, a sentinel, a
	// fault type, a sink) to name something in the loaded module. Both only
	// make sense on a whole-module run.
	CheckRegistry bool
	// ReportUnusedAllows flags //gk:allow comments that suppressed nothing —
	// stale suppressions hide future regressions.
	ReportUnusedAllows bool
}

// DefaultAnalyzers returns the six repo analyzers with their production
// scopes: the syntactic noalloc, coordsafe and errcheck, and lockcheck,
// chanlife and wrapcheck on the CFG engine.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewNoAlloc(),
		NewCoordSafe(),
		NewErrCheck(),
		NewLockCheck(),
		NewChanLife(),
		NewWrapCheck(),
	}
}

// Run lints the loaded module and returns the surviving diagnostics sorted
// by position.
func Run(m *Module, cfg Config) []Diagnostic {
	noalloc := CollectNoAlloc(m)

	var raw []Diagnostic
	report := func(analyzer string, pos token.Pos, msg string) {
		raw = append(raw, Diagnostic{Position: m.Fset.Position(pos), Analyzer: analyzer, Message: msg})
	}

	names := map[string]bool{}
	for _, a := range cfg.Analyzers {
		names[a.Name()] = true
	}

	for _, pkg := range m.Packages {
		c := &Context{Pkg: pkg, All: m.Packages, Fset: m.Fset, Module: m.Path, NoAlloc: noalloc, report: report}
		for _, a := range cfg.Analyzers {
			a.Check(c)
		}
	}

	if cfg.CheckRegistry {
		raw = append(raw, checkRegistry(m, noalloc)...)
		raw = append(raw, checkScopeKeys(m, cfg.Analyzers)...)
	}

	allows, allowDiags := collectAllows(m, names)
	raw = append(raw, allowDiags...)

	var out []Diagnostic
	for _, d := range raw {
		if allows.suppress(d) {
			continue
		}
		out = append(out, d)
	}
	if cfg.ReportUnusedAllows {
		out = append(out, allows.unused()...)
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Annotations ------------------------------------------------------------

const (
	noallocMarker = "//gk:noalloc"
	allowMarker   = "//gk:allow"
)

// FuncKey names a function the way the registry and the annotation set key
// it: pkgpath.Func for plain functions, pkgpath.Recv.Method for methods
// (receiver pointer-ness ignored).
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() == nil {
			return fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	name := "?"
	if n, ok := t.(*types.Named); ok {
		name = n.Obj().Name()
	}
	if fn.Pkg() == nil {
		// Methods of universe types (error.Error) have no package.
		return name + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + name + "." + fn.Name()
}

// CollectNoAlloc scans every package for //gk:noalloc function annotations
// and returns the annotated set keyed by FuncKey.
func CollectNoAlloc(m *Module) map[string]token.Pos {
	out := map[string]token.Pos{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoAllocDoc(fd) {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out[FuncKey(obj)] = fd.Pos()
				}
			}
		}
	}
	return out
}

func hasNoAllocDoc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == noallocMarker {
			return true
		}
	}
	return false
}

// checkRegistry diffs the annotations found in the tree against the
// canonical registry.
func checkRegistry(m *Module, ann map[string]token.Pos) []Diagnostic {
	var out []Diagnostic
	reg := NoAllocSet()
	for key, pos := range ann {
		if !reg[key] {
			out = append(out, Diagnostic{
				Position: m.Fset.Position(pos),
				Analyzer: "noalloc",
				Message:  fmt.Sprintf("%s is annotated //gk:noalloc but missing from lint.NoAllocRegistry; add it so the runtime guards track it", key),
			})
		}
	}
	for _, key := range NoAllocRegistry {
		if _, ok := ann[key]; !ok {
			out = append(out, Diagnostic{
				Position: token.Position{Filename: "internal/lint/registry.go"},
				Analyzer: "noalloc",
				Message:  fmt.Sprintf("registry entry %s has no //gk:noalloc annotation in the source", key),
			})
		}
	}
	return out
}

// scopeKeys are the string keys of an analyzer's production configuration,
// by the kind of thing each must name. A key that names nothing — after a
// rename, say — switches its rule off with the tree still reading clean, so
// a whole-module run resolves every one (checkScopeKeys).
type scopeKeys struct {
	pkgs    []string // import paths
	errVars []string // package-level error variables, "pkgpath.Name"
	types   []string // named types, "pkgpath.Name"
	funcs   []string // FuncKeys
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkScopeKeys reports every scope key of every analyzer that resolves to
// nothing in the loaded module.
func checkScopeKeys(m *Module, analyzers []Analyzer) []Diagnostic {
	pkgs, errVars, typs, funcs := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, pkg := range m.Packages {
		pkgs[pkg.Path] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				if isErrorValue(obj.Type()) {
					errVars[pkg.Path+"."+name] = true
				}
			case *types.Func:
				funcs[FuncKey(obj)] = true
			case *types.TypeName:
				typs[pkg.Path+"."+name] = true
				if named, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						funcs[FuncKey(named.Method(i))] = true
					}
				}
			}
		}
	}
	var out []Diagnostic
	for _, a := range analyzers {
		s, ok := a.(interface{ scopeKeys() scopeKeys })
		if !ok {
			continue
		}
		k := s.scopeKeys()
		for _, kind := range []struct {
			what  string
			keys  []string
			known map[string]bool
		}{
			{"package", k.pkgs, pkgs},
			{"package-level error variable", k.errVars, errVars},
			{"named type", k.types, typs},
			{"function", k.funcs, funcs},
		} {
			for _, key := range kind.keys {
				if !kind.known[key] {
					out = append(out, Diagnostic{
						Position: token.Position{Filename: "internal/lint/" + a.Name() + ".go"},
						Analyzer: "lint",
						Message:  fmt.Sprintf("%s scope key %q names no %s of the loaded module, so the rule it scopes is switched off; fix the key", a.Name(), key, kind.what),
					})
				}
			}
		}
	}
	return out
}

// Suppressions -----------------------------------------------------------

type allowEntry struct {
	pos      token.Position
	analyzer string
	used     bool
}

type allowIndex struct {
	// byLine maps file -> line -> entries allowed on that line.
	byLine map[string]map[int][]*allowEntry
}

// collectAllows parses every //gk:allow comment. Malformed comments (unknown
// analyzer, missing justification) are diagnostics themselves: a suppression
// without a reason is a finding, not an escape hatch. It also flags
// //gk:noalloc markers that are not function doc comments — an annotation
// that silently binds to nothing would weaken the guarantee.
func collectAllows(m *Module, analyzers map[string]bool) (*allowIndex, []Diagnostic) {
	idx := &allowIndex{byLine: map[string]map[int][]*allowEntry{}}
	var diags []Diagnostic
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			docOwned := map[*ast.Comment]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Doc != nil {
					for _, c := range fd.Doc.List {
						docOwned[c] = true
					}
				}
				return true
			})
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					pos := m.Fset.Position(c.Pos())
					if strings.HasPrefix(text, noallocMarker) && !docOwned[c] {
						diags = append(diags, Diagnostic{Position: pos, Analyzer: "lint",
							Message: "//gk:noalloc must be part of a function's doc comment; this one binds to nothing"})
						continue
					}
					if !strings.HasPrefix(text, allowMarker) {
						continue
					}
					// One comment may carry several suppressions (a line with
					// findings from two analyzers): each //gk:allow marker
					// starts a new entry, with the reason running to the next
					// marker.
					for _, seg := range strings.Split(text, allowMarker)[1:] {
						name, reason, _ := strings.Cut(seg, ":")
						name = strings.TrimSpace(name)
						if !analyzers[name] {
							diags = append(diags, Diagnostic{Position: pos, Analyzer: "lint",
								Message: fmt.Sprintf("//gk:allow names unknown analyzer %q", name)})
							continue
						}
						if strings.TrimSpace(reason) == "" {
							diags = append(diags, Diagnostic{Position: pos, Analyzer: "lint",
								Message: fmt.Sprintf("//gk:allow %s needs a justification: //gk:allow %s: <reason>", name, name)})
							continue
						}
						lines := idx.byLine[pos.Filename]
						if lines == nil {
							lines = map[int][]*allowEntry{}
							idx.byLine[pos.Filename] = lines
						}
						lines[pos.Line] = append(lines[pos.Line], &allowEntry{pos: pos, analyzer: name})
					}
				}
			}
		}
	}
	return idx, diags
}

// suppress reports whether d is covered by an allow on its line or the line
// directly above (a standalone comment line), marking the entry used.
func (idx *allowIndex) suppress(d Diagnostic) bool {
	lines := idx.byLine[d.Position.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{d.Position.Line, d.Position.Line - 1} {
		for _, e := range lines[line] {
			if e.analyzer == d.Analyzer {
				e.used = true
				return true
			}
		}
	}
	return false
}

func (idx *allowIndex) unused() []Diagnostic {
	var out []Diagnostic
	for _, lines := range idx.byLine {
		for _, entries := range lines {
			for _, e := range entries {
				if !e.used {
					out = append(out, Diagnostic{Position: e.pos, Analyzer: "lint",
						Message: fmt.Sprintf("unused //gk:allow %s: nothing on this line is flagged; remove the stale suppression", e.analyzer)})
				}
			}
		}
	}
	return out
}

// AST helpers ------------------------------------------------------------

// inspectStack walks root like ast.Inspect while maintaining the ancestor
// stack (stack excludes n itself; stack[len-1] is n's parent).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// callee resolves the called function or method object of a call, or nil for
// calls through function values.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			return sel.Obj()
		}
		return info.Uses[f.Sel]
	}
	return nil
}

// namedTypeName returns the name of the (pointer-stripped) named type of t,
// or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
