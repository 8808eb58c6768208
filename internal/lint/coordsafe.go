package lint

import (
	"go/ast"
	"go/types"
)

// CoordSafe enforces PR 5's coordinate discipline. The mapper deals in two
// position domains — global offsets into the concatenated reference sequence
// and contig-relative positions reported to callers — and every translation
// between them must go through the whitelisted mapper.Reference accessors
// (ContigOf, Locate, WindowContig, ...). Three rules:
//
//  1. offset internals: reading Contig.Off or calling Contig.End outside the
//     Reference/Contig methods is raw global-coordinate arithmetic and must
//     justify itself with //gk:allow (the index build legitimately walks
//     global coordinates; almost nothing else should).
//  2. narrowing casts: positions are 64-bit end to end since the
//     genome-scale migration (PR 8) — the index, candidate, and filter
//     paths all carry int64 and no build-time length guard exists any
//     more. Converting a native-width int or int64 to int32/uint32 inside
//     a position-domain package silently truncates beyond 2^31-1 bases
//     and quietly reintroduces the bound the migration removed, so every
//     such cast must justify itself with //gk:allow.
//  3. mixed-domain arithmetic: an expression combining a contig-relative
//     Mapping/PairMapping Pos with a global Contig.Off/End (or a raw int32
//     index position) adds apples to oranges; translate through Reference
//     first.
type CoordSafe struct {
	// AllowRecvs are receiver type names whose methods are the sanctioned
	// home of global-coordinate arithmetic.
	AllowRecvs map[string]bool
	// AllowFuncs are package-level constructor names with the same licence.
	AllowFuncs map[string]bool
	// NarrowPkgs are the package paths where rule 2 applies: the packages
	// that carry reference positions (the mapper, and the filter engine's
	// candidate path).
	NarrowPkgs map[string]bool
}

// NewCoordSafe returns the analyzer with the production whitelist.
func NewCoordSafe() *CoordSafe {
	return &CoordSafe{
		AllowRecvs: map[string]bool{"Reference": true, "Contig": true},
		AllowFuncs: map[string]bool{"NewReference": true, "SingleContig": true},
		NarrowPkgs: map[string]bool{
			"repro/internal/mapper": true,
			"repro/internal/gkgpu":  true,
		},
	}
}

// Name implements Analyzer.
func (a *CoordSafe) Name() string { return "coordsafe" }

func (a *CoordSafe) scopeKeys() scopeKeys { return scopeKeys{pkgs: sortedKeys(a.NarrowPkgs)} }

// Check implements Analyzer.
func (a *CoordSafe) Check(c *Context) {
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || a.whitelisted(fd) {
				continue
			}
			a.checkFunc(c, fd)
		}
	}
}

func (a *CoordSafe) whitelisted(fd *ast.FuncDecl) bool {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if a.AllowRecvs[recvTypeName(fd.Recv.List[0].Type)] {
			return true
		}
	}
	return fd.Recv == nil && a.AllowFuncs[fd.Name.Name]
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return ""
}

func (a *CoordSafe) checkFunc(c *Context, fd *ast.FuncDecl) {
	info := c.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isContigOffsetRead(info, n) {
				c.Reportf("coordsafe", n.Sel.Pos(), "direct read of Contig.%s outside the Reference accessors: global offsets belong to mapper.Reference (use ContigOf/Locate/WindowContig or justify with //gk:allow)", n.Sel.Name)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && namedTypeName(s.Recv()) == "Contig" {
					c.Reportf("coordsafe", sel.Sel.Pos(), "Contig.End() outside the Reference accessors yields a global offset; translate through Reference or justify with //gk:allow")
				}
			}
			a.checkNarrowing(c, n)
		case *ast.BinaryExpr:
			a.checkMixing(c, n)
		}
		return true
	})
}

// isContigOffsetRead reports a field read of Contig.Off (not inside the
// whitelist, which the caller already excluded).
func isContigOffsetRead(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Off" {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal && namedTypeName(s.Recv()) == "Contig"
}

// checkNarrowing flags int -> int32/uint32 conversions inside the position
// domain's home package.
func (a *CoordSafe) checkNarrowing(c *Context, call *ast.CallExpr) {
	if !a.NarrowPkgs[c.Pkg.Path] || len(call.Args) != 1 {
		return
	}
	info := c.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || (dst.Kind() != types.Int32 && dst.Kind() != types.Uint32) {
		return
	}
	arg := call.Args[0]
	if isUntypedConst(info, arg) {
		return
	}
	src, ok := info.TypeOf(arg).Underlying().(*types.Basic)
	if !ok || (src.Kind() != types.Int && src.Kind() != types.Int64) {
		return
	}
	c.Reportf("coordsafe", call.Pos(), "narrowing cast %s(...) of a native-width value: positions are 64-bit end to end; a 32-bit cast reintroduces the 2^31-base bound the genome-scale migration removed — justify with //gk:allow", dst.Name())
}

// checkMixing flags binary arithmetic combining a contig-relative Pos with a
// global offset.
func (a *CoordSafe) checkMixing(c *Context, b *ast.BinaryExpr) {
	switch b.Op.String() {
	case "+", "-", "<", "<=", ">", ">=", "==", "!=":
	default:
		return
	}
	info := c.Pkg.Info
	l, r := exprDomain(info, b.X), exprDomain(info, b.Y)
	if (l == domainRelative && r == domainGlobal) || (l == domainGlobal && r == domainRelative) {
		c.Reportf("coordsafe", b.OpPos, "arithmetic mixes a contig-relative Pos with a global offset; translate through mapper.Reference first")
	}
}

type coordDomain int

const (
	domainNone coordDomain = iota
	domainRelative
	domainGlobal
)

// exprDomain classifies an expression subtree: contig-relative if it reads a
// Mapping/PairMapping Pos field, global if it reads Contig.Off or calls
// Contig.End.
func exprDomain(info *types.Info, e ast.Expr) coordDomain {
	d := domainNone
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok {
			return true
		}
		recv := namedTypeName(s.Recv())
		switch {
		case s.Kind() == types.FieldVal && sel.Sel.Name == "Pos" && (recv == "Mapping" || recv == "PairMapping"):
			d = domainRelative
			return false
		case recv == "Contig" && (sel.Sel.Name == "Off" || sel.Sel.Name == "End"):
			d = domainGlobal
			return false
		}
		return true
	})
	return d
}
