package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc enforces the //gk:noalloc contract: an annotated function must not
// contain constructs the compiler may lower to a heap allocation. It is the
// static complement of the AllocsPerRun runtime guards — those prove a
// handful of call sites allocation-free under one workload; this proves the
// property structurally for every call site.
//
// Flagged inside annotated functions:
//
//   - make / new / append (growth cannot be ruled out statically)
//   - slice and map composite literals (struct literals are fine: they live
//     in registers or on the stack unless something else flags them)
//   - map writes (rehash/growth)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - boxing a non-pointer concrete value into an interface
//   - calls with non-empty variadic argument lists (the slice is implicit)
//   - go and defer statements
//   - closures, unless bound to a local variable that is only ever called
//     (non-escaping; its body is analyzed as part of the function)
//   - dynamic calls (interface methods, function values)
//   - calls to module functions not themselves annotated //gk:noalloc, and
//     calls into standard-library packages outside a small known-pure set
//
// Cold paths inside hot functions (error construction behind a geometry
// check, a panic that cannot fire in-range) carry //gk:allow noalloc with a
// justification.
type NoAlloc struct {
	// AllowedStd are standard-library import path prefixes whose functions
	// are known not to allocate (pure arithmetic/atomics).
	AllowedStd []string
}

// NewNoAlloc returns the analyzer with the production std whitelist.
func NewNoAlloc() *NoAlloc {
	return &NoAlloc{AllowedStd: []string{"math/bits", "sync/atomic", "math", "unsafe"}}
}

// Name implements Analyzer.
func (a *NoAlloc) Name() string { return "noalloc" }

// Check implements Analyzer.
func (a *NoAlloc) Check(c *Context) {
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasNoAllocDoc(fd) || fd.Body == nil {
				continue
			}
			a.checkFunc(c, fd)
		}
	}
}

// allocBuiltins are the builtins that allocate.
var allocBuiltins = map[string]string{
	"make":    "make allocates",
	"new":     "new allocates",
	"append":  "append may grow its backing array",
	"print":   "print boxes its operands",
	"println": "println boxes its operands",
}

func (a *NoAlloc) checkFunc(c *Context, fd *ast.FuncDecl) {
	info := c.Pkg.Info
	inlined := inlinedClosures(info, fd)
	flaggedCalls := map[*ast.CallExpr]bool{}

	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.Reportf("noalloc", n.Pos(), "go statement in noalloc function %s: spawning a goroutine allocates", fd.Name.Name)
		case *ast.DeferStmt:
			c.Reportf("noalloc", n.Pos(), "defer in noalloc function %s may allocate its frame", fd.Name.Name)
		case *ast.FuncLit:
			if !inlined.lits[n] {
				c.Reportf("noalloc", n.Pos(), "closure in noalloc function %s may escape and allocate; bind it to a local used only in call position", fd.Name.Name)
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				c.Reportf("noalloc", n.Pos(), "slice literal allocates in noalloc function %s", fd.Name.Name)
			case *types.Map:
				c.Reportf("noalloc", n.Pos(), "map literal allocates in noalloc function %s", fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				c.Reportf("noalloc", n.Pos(), "string concatenation allocates in noalloc function %s", fd.Name.Name)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
						c.Reportf("noalloc", lhs.Pos(), "map write may grow the map in noalloc function %s", fd.Name.Name)
					}
				}
				if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
					a.checkBoxing(c, fd, info.TypeOf(lhs), n.Rhs[i])
				}
			}
		case *ast.ReturnStmt:
			sig := enclosingSignature(info, fd, stack)
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					a.checkBoxing(c, fd, sig.Results().At(i).Type(), res)
				}
			}
		case *ast.CallExpr:
			a.checkCall(c, fd, n, inlined, flaggedCalls)
		}
		return true
	})
}

func (a *NoAlloc) checkCall(c *Context, fd *ast.FuncDecl, call *ast.CallExpr, inlined *closureSet, flagged map[*ast.CallExpr]bool) {
	info := c.Pkg.Info

	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			switch {
			case isStringType(dst) && !isStringType(src) && !isUntypedConst(info, call.Args[0]):
				c.Reportf("noalloc", call.Pos(), "conversion to string allocates in noalloc function %s", fd.Name.Name)
			case isByteOrRuneSlice(dst) && isStringType(src):
				c.Reportf("noalloc", call.Pos(), "string-to-slice conversion allocates in noalloc function %s", fd.Name.Name)
			case types.IsInterface(dst) && !types.IsInterface(src) && !isPointerLike(src):
				c.Reportf("noalloc", call.Pos(), "conversion boxes a value into an interface in noalloc function %s", fd.Name.Name)
			}
		}
		return
	}

	obj := callee(info, call)
	switch obj := obj.(type) {
	case *types.Builtin:
		if msg, bad := allocBuiltins[obj.Name()]; bad {
			c.Reportf("noalloc", call.Pos(), "%s in noalloc function %s", msg, fd.Name.Name)
			flagged[call] = true
		}
		// Builtin arguments (panic's operand in particular) are exempt from
		// the boxing check: panic is terminal.
		return
	case *types.Func:
		sig := obj.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			c.Reportf("noalloc", call.Pos(), "dynamic interface call %s in noalloc function %s cannot be proven allocation-free", obj.Name(), fd.Name.Name)
			flagged[call] = true
			break
		}
		key := FuncKey(obj)
		switch {
		case obj.Pkg() == nil:
			// Universe-scope (error.Error reached above); nothing else here.
		case strings.HasPrefix(obj.Pkg().Path(), c.Module+"/") || obj.Pkg().Path() == c.Module:
			if _, ok := c.NoAlloc[key]; !ok {
				c.Reportf("noalloc", call.Pos(), "call to %s, which is not //gk:noalloc, in noalloc function %s", key, fd.Name.Name)
				flagged[call] = true
			}
		default:
			if !a.stdAllowed(obj.Pkg().Path()) {
				c.Reportf("noalloc", call.Pos(), "call to %s in noalloc function %s: standard-library calls outside %v are assumed to allocate", key, fd.Name.Name, a.AllowedStd)
				flagged[call] = true
			}
		}
	default:
		// Call through a function value: fine only for the inlined-closure
		// pattern.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && inlined.objs[info.Uses[id]] {
			break
		}
		c.Reportf("noalloc", call.Pos(), "call through a function value in noalloc function %s cannot be proven allocation-free", fd.Name.Name)
		flagged[call] = true
	}

	if flagged[call] {
		return // one diagnostic per call; its arguments still get walked
	}

	// Variadic calls materialize their argument slice.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig.Variadic() && call.Ellipsis == token.NoPos {
		if len(call.Args) >= sig.Params().Len() {
			c.Reportf("noalloc", call.Pos(), "variadic call allocates its argument slice in noalloc function %s", fd.Name.Name)
			return
		}
	}

	// Boxing arguments into interface parameters.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		for i, arg := range call.Args {
			var pt types.Type
			if i < sig.Params().Len() {
				pt = sig.Params().At(i).Type()
			} else if sig.Variadic() {
				pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			}
			if pt != nil {
				a.checkBoxing(c, fd, pt, arg)
			}
		}
	}
}

// checkBoxing flags storing a non-pointer concrete value into an
// interface-typed slot.
func (a *NoAlloc) checkBoxing(c *Context, fd *ast.FuncDecl, dst types.Type, src ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	st := c.Pkg.Info.TypeOf(src)
	if st == nil || types.IsInterface(st) || isPointerLike(st) || isUntypedNil(st) {
		return
	}
	c.Reportf("noalloc", src.Pos(), "value of type %s boxes into an interface in noalloc function %s", st, fd.Name.Name)
}

func (a *NoAlloc) stdAllowed(path string) bool {
	for _, p := range a.AllowedStd {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// closureSet records closures that behave like inlined code: bound once to a
// local variable whose every use is a direct call.
type closureSet struct {
	lits map[*ast.FuncLit]bool
	objs map[types.Object]bool
}

// inlinedClosures finds `f := func(...){...}` bindings inside fd whose
// variable is only ever used in call position — the pattern the compiler
// keeps off the heap (the pre-PR-15 kernel's fused helpers were written so).
func inlinedClosures(info *types.Info, fd *ast.FuncDecl) *closureSet {
	cs := &closureSet{lits: map[*ast.FuncLit]bool{}, objs: map[types.Object]bool{}}
	candidates := map[types.Object]*ast.FuncLit{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			lit, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				candidates[obj] = lit
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return cs
	}
	escaped := map[types.Object]bool{}
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || candidates[obj] == nil {
			return true
		}
		// The use is fine only as the Fun of a call.
		ok = false
		if len(stack) > 0 {
			if call, isCall := stack[len(stack)-1].(*ast.CallExpr); isCall && ast.Unparen(call.Fun) == id {
				ok = true
			}
		}
		if !ok {
			escaped[obj] = true
		}
		return true
	})
	for obj, lit := range candidates {
		if !escaped[obj] {
			cs.lits[lit] = true
			cs.objs[obj] = true
		}
	}
	return cs
}

// enclosingSignature returns the signature of the innermost function literal
// or declaration containing the current node.
func enclosingSignature(info *types.Info, fd *ast.FuncDecl, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			if sig, ok := info.TypeOf(lit).(*types.Signature); ok {
				return sig
			}
			return nil
		}
	}
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature)
	}
	return nil
}

// Type predicates --------------------------------------------------------

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerLike reports types whose interface representation stores the
// value directly (no box): pointers, channels, maps, funcs, unsafe pointers.
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isUntypedConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
