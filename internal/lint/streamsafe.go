package lint

import (
	"go/ast"
	"go/types"
)

// StreamSafe enforces the streaming packages' concurrency discipline, the
// one the race detector can only probe dynamically:
//
//   - every channel send must sit under a select that also has a done/drain
//     arm (a receive or default case that lets the goroutine exit when the
//     consumer is gone), or target a channel created in the same function
//     with an explicit capacity (the bounded free-list/ack pattern, where
//     the buffer provably covers the senders). Anything else must carry
//     //gk:allow streamsafe naming the drain guarantee (the tree has none
//     since runStream's staged handoffs were deleted).
//   - sync.WaitGroup.Add must not run inside the goroutine it accounts for:
//     Add racing Wait is the classic leaked-goroutine/early-Wait bug. Add
//     before go, Done inside.
//   - time.Sleep is banned: a sleeping retry/backoff loop cannot observe
//     cancellation, so a cancelled stream holds its worker (and everything
//     draining behind it) for the full sleep. Back off with a time.Timer
//     inside a select that also has a ctx.Done arm.
//
// The analyzer runs over the streaming packages only (gkgpu's streams and
// the mapper's channel-fed core); other packages' incidental goroutines are
// covered by the race detector and vet.
type StreamSafe struct {
	// Packages are the package paths under the discipline.
	Packages map[string]bool
}

// NewStreamSafe returns the analyzer scoped to the streaming packages.
func NewStreamSafe() *StreamSafe {
	return &StreamSafe{Packages: map[string]bool{
		"repro/internal/gkgpu":  true,
		"repro/internal/mapper": true,
	}}
}

// Name implements Analyzer.
func (a *StreamSafe) Name() string { return "streamsafe" }

// Check implements Analyzer.
func (a *StreamSafe) Check(c *Context) {
	if !a.Packages[c.Pkg.Path] {
		return
	}
	info := c.Pkg.Info
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				switch n := n.(type) {
				case *ast.SendStmt:
					if !sendGuarded(info, fd, n, stack) {
						c.Reportf("streamsafe", n.Arrow, "channel send outside a select with a done/drain arm; add a cancellation case, use a locally bounded buffered channel, or document the drain guarantee with //gk:allow")
					}
				case *ast.GoStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						checkWaitGroupAdd(c, info, lit)
					}
				case *ast.CallExpr:
					if isTimeSleep(info, n) {
						c.Reportf("streamsafe", n.Pos(), "time.Sleep cannot observe cancellation; back off with a time.Timer in a select with a ctx.Done arm")
					}
				}
				return true
			})
		}
	}
}

// sendGuarded reports whether the send is under a select with an escape arm
// or targets a channel made with explicit capacity inside this function.
func sendGuarded(info *types.Info, fd *ast.FuncDecl, send *ast.SendStmt, stack []ast.Node) bool {
	// Escape 1: the send is the comm of a select clause whose select has
	// another receive or default arm. (The clause's walk parent is the
	// select's BlockStmt, hence stack[i-2] for the SelectStmt.)
	for i := len(stack) - 1; i > 1; i-- {
		clause, ok := stack[i].(*ast.CommClause)
		if !ok || clause.Comm != send {
			continue
		}
		sel, ok := stack[i-2].(*ast.SelectStmt)
		if !ok {
			break
		}
		for _, cl := range sel.Body.List {
			cc := cl.(*ast.CommClause)
			if cc == clause {
				continue
			}
			if cc.Comm == nil { // default
				return true
			}
			switch cc.Comm.(type) {
			case *ast.ExprStmt, *ast.AssignStmt: // receive arm
				return true
			}
		}
		break
	}
	// Escape 2: the channel was made with an explicit capacity in this
	// function (including its closures) — the bounded-buffer pattern.
	id, ok := ast.Unparen(send.Chan).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return bufferedChanLocal(info, fd, obj)
}

// bufferedChanLocal reports whether obj is bound to a make(chan T, cap) call
// with an explicit capacity argument anywhere inside fd.
func bufferedChanLocal(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			bound := info.Defs[id]
			if bound == nil {
				bound = info.Uses[id]
			}
			if bound != obj {
				continue
			}
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) == 2 {
				if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[fn].(*types.Builtin); ok && b.Name() == "make" {
						// Zero-capacity literals don't count as buffered.
						if tv, ok := info.Types[call.Args[1]]; !ok || tv.Value == nil || tv.Value.String() != "0" {
							found = true
						}
					}
				}
			}
		}
		return true
	})
	return found
}

// isTimeSleep reports whether the call is time.Sleep.
func isTimeSleep(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sleep" {
		return false
	}
	obj := info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// checkWaitGroupAdd flags WaitGroup.Add calls lexically inside a spawned
// goroutine body.
func checkWaitGroupAdd(c *Context, info *types.Info, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.MethodVal {
			return true
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			if named.Obj().Name() == "WaitGroup" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
				c.Reportf("streamsafe", call.Pos(), "WaitGroup.Add inside the spawned goroutine races Wait; Add before the go statement, Done inside")
			}
		}
		return true
	})
}
