package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// ChanLife enforces the channel and goroutine discipline of the packages
// that own the module's concurrency — gkgpu's stream, the mapper's
// channel-fed collector and par.For, the one fan-out loop. Five rules, each
// with a subject in production code (docs/lint.md names them):
//
//  1. a channel send is the comm of a select that also has a receive or a
//     default arm, so the sender can leave when its consumer is gone.
//     Anything else — a send to a locally made buffered channel included —
//     must carry //gk:allow chanlife naming the drain guarantee.
//  2. a channel is closed at most once per path: a close that may follow an
//     earlier close — or that an already-registered deferred close will
//     repeat at exit — panics at runtime, exactly when the fault paths that
//     exercise it are least tested.
//  3. no send is reachable after a close of the same channel within a
//     context (send-on-closed panics).
//  4. sync.WaitGroup.Add does not run inside the goroutine it accounts for:
//     Add racing Wait is the classic early-Wait bug. Add before go, Done
//     inside.
//  5. time.Sleep is banned: a sleeping retry/backoff loop cannot observe
//     cancellation, so a cancelled stream holds its worker for the full
//     sleep. Back off with a time.Timer inside a select that also has a
//     ctx.Done arm.
//
// Rules 1, 4 and 5 judge one statement; rules 2 and 3 are path facts on the
// CFG, per function context (a goroutine literal closes its own channels).
// Channel identity is the local identifier's object; fields and map/slice
// elements are out of scope, and closes of one channel by two different
// contexts are not chased.
type ChanLife struct {
	// Packages under the discipline.
	Packages map[string]bool
}

// NewChanLife returns the analyzer scoped to the packages that start
// goroutines or own channels.
func NewChanLife() *ChanLife {
	return &ChanLife{Packages: map[string]bool{
		"repro/internal/gkgpu":  true,
		"repro/internal/mapper": true,
		"repro/internal/par":    true,
	}}
}

// Name implements Analyzer.
func (a *ChanLife) Name() string { return "chanlife" }

func (a *ChanLife) scopeKeys() scopeKeys { return scopeKeys{pkgs: sortedKeys(a.Packages)} }

// Check implements Analyzer.
func (a *ChanLife) Check(c *Context) {
	if !a.Packages[c.Pkg.Path] {
		return
	}
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkStatements(c, fd)
			for _, body := range funcBodies(fd) {
				a.checkCloses(c, body)
			}
		}
	}
}

// checkStatements applies rules 1, 4 and 5 to every statement of fd, nested
// literals included.
func (a *ChanLife) checkStatements(c *Context, fd *ast.FuncDecl) {
	info := c.Pkg.Info
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !sendGuarded(n, stack) {
				c.Reportf("chanlife", n.Arrow, "channel send outside a select with a done/drain arm; add a receive or default case, or document the drain guarantee with //gk:allow")
			}
		case *ast.CallExpr:
			fn, ok := callee(info, n).(*types.Func)
			if !ok {
				break
			}
			switch FuncKey(fn) {
			case "time.Sleep":
				c.Reportf("chanlife", n.Pos(), "time.Sleep cannot observe cancellation; back off with a time.Timer in a select with a ctx.Done arm")
			case "sync.WaitGroup.Add":
				if inGoLiteral(stack) {
					c.Reportf("chanlife", n.Pos(), "WaitGroup.Add inside the spawned goroutine races Wait; Add before the go statement, Done inside")
				}
			}
		}
		return true
	})
}

// sendGuarded reports whether the send is the comm of a select clause whose
// select has another way out: a receive arm or a default.
func sendGuarded(send *ast.SendStmt, stack []ast.Node) bool {
	n := len(stack)
	if n < 3 {
		return false
	}
	clause, ok := stack[n-1].(*ast.CommClause)
	if !ok || clause.Comm != send {
		return false
	}
	// The clause's walk parent is the select's BlockStmt.
	for _, cl := range stack[n-3].(*ast.SelectStmt).Body.List {
		switch cl.(*ast.CommClause).Comm.(type) {
		case nil, *ast.ExprStmt, *ast.AssignStmt: // default, or a receive
			return true
		}
	}
	return false
}

// inGoLiteral reports whether the node under stack sits lexically inside a
// function literal that a go statement spawns.
func inGoLiteral(stack []ast.Node) bool {
	for i := 2; i < len(stack); i++ {
		if g, ok := stack[i-2].(*ast.GoStmt); ok && g.Call.Fun == stack[i] {
			return true
		}
	}
	return false
}

// chanFact is the per-path channel state, both may-facts (union join): the
// channels some path has closed, and those a registered defer will close at
// exit, each with the earliest site for the message.
type chanFact struct {
	closed, deferred map[types.Object]token.Pos
}

func (f chanFact) clone() chanFact {
	out := chanFact{closed: map[types.Object]token.Pos{}, deferred: map[types.Object]token.Pos{}}
	maps.Copy(out.closed, f.closed)
	maps.Copy(out.deferred, f.deferred)
	return out
}

func chanJoin(a, b chanFact) chanFact {
	out := a.clone()
	keepEarliest(out.closed, b.closed)
	keepEarliest(out.deferred, b.deferred)
	return out
}

func keepEarliest(dst, src map[types.Object]token.Pos) {
	for k, v := range src {
		if cur, ok := dst[k]; !ok || v < cur {
			dst[k] = v
		}
	}
}

func chanEqual(a, b chanFact) bool {
	return maps.Equal(a.closed, b.closed) && maps.Equal(a.deferred, b.deferred)
}

// checkCloses applies rules 2 and 3 to one function context.
func (a *ChanLife) checkCloses(c *Context, body *ast.BlockStmt) {
	g := BuildCFG(c.Pkg.Info, body)
	transfer := func(bl *Block, in chanFact, report bool) chanFact {
		out := in.clone()
		for _, n := range bl.Nodes {
			a.transferNode(c, n, out, report)
		}
		return out
	}
	in := forwardDataflow(g, chanFact{},
		func(bl *Block, f chanFact) chanFact { return transfer(bl, f, false) },
		chanJoin, chanEqual)
	for _, bl := range g.ReversePostorder() {
		transfer(bl, in[bl], true)
	}
}

// closedChan returns the channel a close(ch) call closes, or nil for any
// other call (or a channel that is not a plain identifier).
func closedChan(info *types.Info, call *ast.CallExpr) types.Object {
	if b, ok := callee(info, call).(*types.Builtin); !ok || b.Name() != "close" {
		return nil
	}
	return chanIdentObj(info, call.Args[0])
}

func (a *ChanLife) transferNode(c *Context, n ast.Node, out chanFact, report bool) {
	info := c.Pkg.Info
	switch n := n.(type) {
	case *ast.RangeStmt, *ast.SelectStmt:
		return // structural markers; their bodies have their own blocks
	case *ast.DeferStmt:
		if obj := closedChan(info, n.Call); obj != nil {
			if report {
				if pos, ok := out.deferred[obj]; ok {
					c.Reportf("chanlife", n.Call.Pos(), "%s already has a deferred close (registered at %s); both will run and the second panics", obj.Name(), c.Fset.Position(pos))
				} else if pos, ok := out.closed[obj]; ok {
					c.Reportf("chanlife", n.Call.Pos(), "%s may already be closed (at %s) when this deferred close runs", obj.Name(), c.Fset.Position(pos))
				}
			}
			if _, ok := out.deferred[obj]; !ok {
				out.deferred[obj] = n.Call.Pos()
			}
		}
		return
	}
	shallowWalk(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			obj := closedChan(info, m)
			if obj == nil {
				break
			}
			if report {
				if pos, ok := out.closed[obj]; ok {
					c.Reportf("chanlife", m.Pos(), "%s may already be closed (at %s); a second close panics", obj.Name(), c.Fset.Position(pos))
				} else if pos, ok := out.deferred[obj]; ok {
					c.Reportf("chanlife", m.Pos(), "%s has a deferred close pending (registered at %s); closing it here makes the deferred close a double close", obj.Name(), c.Fset.Position(pos))
				}
			}
			if _, ok := out.closed[obj]; !ok {
				out.closed[obj] = m.Pos()
			}
		case *ast.SendStmt:
			if obj := chanIdentObj(info, m.Chan); report && obj != nil {
				if pos, ok := out.closed[obj]; ok {
					c.Reportf("chanlife", m.Arrow, "send on %s is reachable after its close at %s; send-on-closed panics", obj.Name(), c.Fset.Position(pos))
				}
			}
		}
		return true
	})
}
