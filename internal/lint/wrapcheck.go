package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// WrapCheck guards the fault taxonomy the retry/redispatch machinery and
// the mapper's index loader dispatch on. The taxonomy only works if it is
// closed: gkmap matches errors.Is(err, ErrStreamAborted), the engine
// quarantines on errors.Is(err, cuda.ErrDeviceLost), and the mapper's CLI
// explains corrupt indexes via the ErrIndex* family — an error constructed
// outside the taxonomy in a fault path is invisible to all of them.
//
//   - Module-wide: every errors.Is target must be a declared sentinel (or a
//     standard-library error); every errors.As target must be a declared
//     fault type. A comparison against an undeclared error is a taxonomy
//     fork at the consumption side.
//   - In the fault packages, a function that speaks the taxonomy — it
//     references a declared sentinel or feeds a declared error sink such as
//     Engine.setStreamErr — must speak it exclusively: every error it
//     produces (returns, passes to a sink, or stores in an err field of a
//     local fault struct) must be a sentinel, wrap one with %w, carry a
//     declared fault type, or pass through an error whose provenance is
//     someone else's (a callee result). Freshly minted opaque errors —
//     errors.New, fmt.Errorf without %w — are findings. Provenance is
//     tracked through local variables with a forward dataflow, so an opaque
//     error laundered through an assignment is still caught.
//   - In the fault packages, every package-level error variable must be in
//     the declared registry below: an ad-hoc sentinel is a taxonomy fork at
//     the production side.
//
// Functions that never touch the taxonomy (pure validation paths like the
// CPU engine's geometry checks) stay out of scope: their errors are
// contracts with the caller, not faults.
type WrapCheck struct {
	// Packages under the construction discipline (rules 2 and 3).
	Packages map[string]bool
	// Sentinels are the declared taxonomy errors, keyed "pkgpath.Name".
	Sentinels map[string]bool
	// FaultTypes are the declared rich fault types, keyed "pkgpath.Name".
	FaultTypes map[string]bool
	// Sinks map FuncKeys to the index of the error argument that enters the
	// fault plumbing.
	Sinks map[string]int
	// Module scopes the errors.Is/As rule: targets outside this module
	// (standard library, third-party) are exempt. Defaults to the loaded
	// module's path.
	Module string
}

// NewWrapCheck returns the analyzer with the production taxonomy.
func NewWrapCheck() *WrapCheck {
	return &WrapCheck{
		Packages: map[string]bool{
			"repro/internal/gkgpu":  true,
			"repro/internal/mapper": true,
			"repro/internal/cuda":   true,
		},
		Sentinels: map[string]bool{
			"repro/internal/gkgpu.ErrLaunch":          true,
			"repro/internal/gkgpu.ErrAlloc":           true,
			"repro/internal/gkgpu.ErrTransfer":        true,
			"repro/internal/gkgpu.ErrDeviceLost":      true,
			"repro/internal/gkgpu.ErrStreamAborted":   true,
			"repro/internal/cuda.ErrInjectedLaunch":   true,
			"repro/internal/cuda.ErrInjectedAlloc":    true,
			"repro/internal/cuda.ErrInjectedTransfer": true,
			"repro/internal/cuda.ErrDeviceLost":       true,
			"repro/internal/mapper.ErrIndexMagic":     true,
			"repro/internal/mapper.ErrIndexVersion":   true,
			"repro/internal/mapper.ErrIndexTruncated": true,
			"repro/internal/mapper.ErrIndexChecksum":  true,
			"repro/internal/mapper.ErrIndexGeometry":  true,
			"repro/internal/mapper.ErrIndexMismatch":  true,
			"repro/internal/mapper.ErrIndexByteOrder": true,
		},
		FaultTypes: map[string]bool{
			"repro/internal/gkgpu.DeviceFault": true,
		},
		Sinks: map[string]int{
			"repro/internal/gkgpu.Engine.setStreamErr": 0,
		},
	}
}

// Name implements Analyzer.
func (a *WrapCheck) Name() string { return "wrapcheck" }

func (a *WrapCheck) scopeKeys() scopeKeys {
	return scopeKeys{
		pkgs:    sortedKeys(a.Packages),
		errVars: sortedKeys(a.Sentinels),
		types:   sortedKeys(a.FaultTypes),
		funcs:   sortedKeys(a.Sinks),
	}
}

// Error provenance classes, ordered so the join is max().
type provClass int

const (
	provUnknown  provClass = iota // callee results, parameters: someone else's contract
	provTaxonomy                  // sentinel, %w-wrap of one, or declared fault type
	provOpaque                    // freshly minted outside the taxonomy
)

type provFact map[types.Object]provClass

func (f provFact) clone() provFact {
	out := make(provFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func provJoin(a, b provFact) provFact {
	out := a.clone()
	for k, v := range b {
		if cur, ok := out[k]; !ok || v > cur {
			out[k] = v
		}
	}
	return out
}

func provEqual(a, b provFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// Check implements Analyzer.
func (a *WrapCheck) Check(c *Context) {
	module := a.Module
	if module == "" {
		module = c.Module
	}
	info := c.Pkg.Info
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				a.checkIsAs(c, info, module, call)
			}
			return true
		})
	}
	if !a.Packages[c.Pkg.Path] {
		return
	}
	a.checkDeclaredSentinels(c)
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !a.faultPath(info, fd) {
				continue
			}
			for _, body := range funcBodies(fd) {
				a.checkContext(c, body)
			}
		}
	}
}

// checkIsAs enforces the consumption side: errors.Is against declared
// sentinels, errors.As against declared fault types.
func (a *WrapCheck) checkIsAs(c *Context, info *types.Info, module string, call *ast.CallExpr) {
	fn, ok := callee(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "errors" || len(call.Args) != 2 {
		return
	}
	inModule := func(pkg *types.Package) bool {
		return pkg != nil && (pkg.Path() == module || strings.HasPrefix(pkg.Path(), module+"/"))
	}
	switch fn.Name() {
	case "Is":
		target := ast.Unparen(call.Args[1])
		var obj types.Object
		switch t := target.(type) {
		case *ast.Ident:
			obj = info.Uses[t]
		case *ast.SelectorExpr:
			obj = info.Uses[t.Sel]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			c.Reportf("wrapcheck", call.Args[1].Pos(), "errors.Is target is not a package-level sentinel; matching ad-hoc error values forks the fault taxonomy")
			return
		}
		if inModule(v.Pkg()) && !a.Sentinels[v.Pkg().Path()+"."+v.Name()] {
			c.Reportf("wrapcheck", call.Args[1].Pos(), "errors.Is target %s.%s is not a declared sentinel; add it to the wrapcheck registry or match a declared one", v.Pkg().Path(), v.Name())
		}
	case "As":
		t := info.TypeOf(call.Args[1])
		p, ok := t.(*types.Pointer)
		if !ok {
			return
		}
		elem := p.Elem()
		if pp, ok := elem.(*types.Pointer); ok {
			elem = pp.Elem()
		}
		named, ok := elem.(*types.Named)
		if !ok {
			return
		}
		pkg := named.Obj().Pkg()
		if inModule(pkg) && !a.FaultTypes[pkg.Path()+"."+named.Obj().Name()] {
			c.Reportf("wrapcheck", call.Args[1].Pos(), "errors.As target %s.%s is not a declared fault type; add it to the wrapcheck registry", pkg.Path(), named.Obj().Name())
		}
	}
}

// checkDeclaredSentinels enforces the production side of taxonomy closure:
// no ad-hoc package-level error variables in the fault packages.
func (a *WrapCheck) checkDeclaredSentinels(c *Context) {
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := c.Pkg.Info.Defs[name].(*types.Var)
					if !ok || !isErrorValue(obj.Type()) {
						continue
					}
					if !a.Sentinels[c.Pkg.Path+"."+obj.Name()] {
						c.Reportf("wrapcheck", name.Pos(), "package-level error %s is not in the declared sentinel registry; register it in lint.NewWrapCheck or fold it into an existing sentinel", obj.Name())
					}
				}
			}
		}
	}
}

// isErrorValue reports whether t is the error interface type.
func isErrorValue(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

// faultPath reports whether the function speaks the taxonomy: it references
// a declared sentinel identifier or calls a declared sink anywhere in its
// body (nested literals included).
func (a *WrapCheck) faultPath(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && v.Pkg() != nil && a.Sentinels[v.Pkg().Path()+"."+v.Name()] {
				found = true
			}
		case *ast.CallExpr:
			if fn, ok := callee(info, n).(*types.Func); ok {
				if _, isSink := a.Sinks[FuncKey(fn)]; isSink {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func (a *WrapCheck) checkContext(c *Context, body *ast.BlockStmt) {
	info := c.Pkg.Info
	g := BuildCFG(info, body)
	transfer := func(bl *Block, in provFact, report bool) provFact {
		out := in.clone()
		for _, n := range bl.Nodes {
			a.transferNode(c, info, n, out, report)
		}
		return out
	}
	in := forwardDataflow(g, provFact{},
		func(bl *Block, f provFact) provFact { return transfer(bl, f, false) },
		provJoin, provEqual)
	for _, bl := range g.ReversePostorder() {
		transfer(bl, in[bl], true)
	}
}

func (a *WrapCheck) transferNode(c *Context, info *types.Info, n ast.Node, out provFact, report bool) {
	prodCheck := func(e ast.Expr, what string) {
		if !report || e == nil || !isErrorValue(info.TypeOf(e)) {
			return
		}
		if a.classify(info, e, out) == provOpaque {
			c.Reportf("wrapcheck", e.Pos(), "%s is a fresh error outside the fault taxonomy; use a declared sentinel, wrap one with %%w, or build a declared fault type", what)
		}
	}
	switch n.(type) {
	case *ast.RangeStmt, *ast.SelectStmt:
		return // structural markers; their bodies have their own blocks
	}
	shallowWalk(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			a.genAssign(info, m, out)
			for _, lhs := range m.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && (sel.Sel.Name == "err" || sel.Sel.Name == "Err") {
					if len(m.Rhs) == len(m.Lhs) {
						for i, l := range m.Lhs {
							if l == lhs {
								prodCheck(m.Rhs[i], "error stored in a fault struct field")
							}
						}
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := m.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
						for i, name := range vs.Names {
							if obj := info.Defs[name]; obj != nil && isErrorValue(obj.Type()) {
								out[obj] = a.classify(info, vs.Values[i], out)
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				prodCheck(r, "returned fault-path error")
			}
		case *ast.CallExpr:
			if fn, ok := callee(info, m).(*types.Func); ok {
				if idx, isSink := a.Sinks[FuncKey(fn)]; isSink && idx < len(m.Args) {
					prodCheck(m.Args[idx], "error passed to the stream fault sink")
				}
			}
		}
		return true
	})
}

// genAssign updates local error provenance from one assignment.
func (a *WrapCheck) genAssign(info *types.Info, as *ast.AssignStmt, out provFact) {
	if len(as.Lhs) != len(as.Rhs) {
		// Multi-value unpacking: every error result is a callee's contract.
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := defOrUse(info, id); obj != nil && isErrorValue(obj.Type()) {
					out[obj] = provUnknown
				}
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := defOrUse(info, id)
		if obj == nil || !isErrorValue(obj.Type()) {
			continue
		}
		out[obj] = a.classify(info, as.Rhs[i], out)
	}
}

func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// classify assigns a provenance class to one error expression under the
// current facts.
func (a *WrapCheck) classify(info *types.Info, e ast.Expr, facts provFact) provClass {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return provUnknown
		}
		obj := defOrUse(info, e)
		if obj == nil {
			return provUnknown
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && a.Sentinels[v.Pkg().Path()+"."+v.Name()] {
			return provTaxonomy
		}
		if cls, ok := facts[obj]; ok {
			return cls
		}
		return provUnknown
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil && a.Sentinels[obj.Pkg().Path()+"."+obj.Name()] {
			return provTaxonomy
		}
		return provUnknown
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return a.classify(info, e.X, facts)
		}
		return provUnknown
	case *ast.CompositeLit:
		if a.isFaultType(info.TypeOf(e)) {
			return provTaxonomy
		}
		return provUnknown
	case *ast.CallExpr:
		return a.classifyCall(info, e, facts)
	}
	return provUnknown
}

func (a *WrapCheck) isFaultType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return a.FaultTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

func (a *WrapCheck) classifyCall(info *types.Info, call *ast.CallExpr, facts provFact) provClass {
	fn, ok := callee(info, call).(*types.Func)
	if !ok {
		return provUnknown
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "errors" && fn.Name() == "New" {
		return provOpaque
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf" {
		return a.classifyErrorf(info, call, facts)
	}
	// A call whose result is a declared fault type carries the taxonomy.
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Results().Len(); i++ {
			if a.isFaultType(sig.Results().At(i).Type()) {
				return provTaxonomy
			}
		}
	}
	return provUnknown
}

// classifyErrorf judges a fmt.Errorf: no %w verb mints an opaque error; with
// %w the class is the best class among the wrapped operands (wrapping a
// sentinel is taxonomy, wrapping a callee's error is passthrough, wrapping a
// known-opaque local launders nothing).
func (a *WrapCheck) classifyErrorf(info *types.Info, call *ast.CallExpr, facts provFact) provClass {
	if len(call.Args) == 0 {
		return provOpaque
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return provUnknown // dynamic format string: cannot judge
	}
	if countWrapVerbs(constant.StringVal(tv.Value)) == 0 {
		return provOpaque
	}
	cls := provOpaque
	sawError := false
	for _, arg := range call.Args[1:] {
		if !isErrorValue(info.TypeOf(arg)) && !a.isFaultType(info.TypeOf(arg)) {
			continue
		}
		sawError = true
		switch a.classify(info, arg, facts) {
		case provTaxonomy:
			return provTaxonomy
		case provUnknown:
			cls = provUnknown // passthrough of someone else's error
		}
	}
	if !sawError {
		return provOpaque // %w with no error operand is a vet error anyway
	}
	return cls
}

// countWrapVerbs counts %w verbs in a format string, skipping %%.
func countWrapVerbs(format string) int {
	n := 0
	for i := 0; i < len(format)-1; i++ {
		if format[i] != '%' {
			continue
		}
		if format[i+1] == '%' {
			i++
			continue
		}
		// Scan past flags/width to the verb.
		j := i + 1
		for j < len(format) && strings.ContainsRune("+-# 0123456789.[]*", rune(format[j])) {
			j++
		}
		if j < len(format) && format[j] == 'w' {
			n++
		}
		i = j - 1
	}
	return n
}
