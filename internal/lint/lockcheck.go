package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck enforces the mutex discipline on the CFG:
//
//   - every Lock()/RLock() must be released on every normal path out of its
//     function context — by a deferred unlock or an explicit unlock on each
//     branch. A lock that survives to the exit on any path is the
//     branch-path leak that deadlocks the next caller.
//   - no acquisition of a mutex that may already be held at that point
//     (double-lock of the same receiver self-deadlocks; sync.Mutex is not
//     reentrant).
//   - in the streaming packages, no lock may be held across a blocking
//     operation — a channel send or receive, a select without a default, a
//     range over a channel, or a WaitGroup/Cond Wait. A blocked goroutine
//     holding a mutex stalls every other path through that lock; the
//     streaming pipeline's liveness arguments all assume lock regions are
//     straight-line. A deliberate exception must say so with //gk:allow
//     lockcheck naming the design reason; the tree has none (gkgpu's
//     streams take runMu per batch, not for their lifetime).
//
// The analysis is intra-procedural and per function context (a goroutine
// literal holds and releases its own locks); lock identity is the rendered
// receiver expression, so e.statsMu on two paths is one lock and a helper
// that unlocks on the caller's behalf is invisible — such helpers don't
// exist in this repo and should not be introduced.
type LockCheck struct {
	// StreamPackages are the packages where rule 3 (no lock across a
	// blocking operation) applies; rules 1 and 2 apply module-wide.
	StreamPackages map[string]bool
}

// NewLockCheck returns the analyzer with the production scope.
func NewLockCheck() *LockCheck {
	return &LockCheck{StreamPackages: map[string]bool{
		"repro/internal/gkgpu":  true,
		"repro/internal/mapper": true,
	}}
}

// Name implements Analyzer.
func (a *LockCheck) Name() string { return "lockcheck" }

func (a *LockCheck) scopeKeys() scopeKeys { return scopeKeys{pkgs: sortedKeys(a.StreamPackages)} }

// lockHeld is one held lock's state on some path.
type lockHeld struct {
	pos      token.Pos // acquisition site
	deferred bool      // a deferred unlock covers every path from here
	read     bool      // RLock (shared) rather than Lock (exclusive)
}

type lockFact map[string]lockHeld

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func lockJoin(a, b lockFact) lockFact {
	out := a.clone()
	for k, v := range b {
		if cur, ok := out[k]; ok {
			// Held on both paths: deferred only if both paths deferred;
			// keep the earliest acquisition for reporting.
			if v.pos < cur.pos {
				cur.pos = v.pos
			}
			cur.deferred = cur.deferred && v.deferred
			cur.read = cur.read && v.read
			out[k] = cur
		} else {
			// Held on one path only: the leak/blocking questions still
			// apply, so may-union keeps it.
			out[k] = v
		}
	}
	return out
}

func lockEqual(a, b lockFact) bool {
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

const (
	opLock = iota
	opRLock
	opUnlock
	opRUnlock
)

// lockOp classifies a call as a sync lock/unlock operation and returns the
// lock's identity (the rendered receiver expression).
func lockOp(info *types.Info, call *ast.CallExpr) (key string, op int, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return "", 0, false
	}
	obj := callee(info, call)
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	return types.ExprString(sel.X), op, true
}

// selectComms collects the communication statements of every select in the
// body: they execute only when their select commits an arm, so blocking is
// the select's question, not theirs.
func selectComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					out[cc.Comm] = true
				}
			}
		}
		return true
	})
	return out
}

// isSyncWait reports whether the call is sync.WaitGroup.Wait or
// sync.Cond.Wait — blocking synchronization points.
func isSyncWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	fn, ok := callee(info, call).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}

// lockReporter dedupes rule 3 so one acquisition gets one finding (at the
// Lock site, naming the first blocking operation), whatever the number of
// blocking points inside the critical section — one //gk:allow per design
// decision. nil disables reporting (the fixpoint passes).
type lockReporter struct {
	c        *Context
	reported map[token.Pos]bool
}

func (r *lockReporter) blocking(f lockFact, opPos token.Pos, what string) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(f) {
		h := f[k]
		if r.reported[h.pos] {
			continue
		}
		r.reported[h.pos] = true
		r.c.Reportf("lockcheck", h.pos, "%s is held across a blocking %s at %s; release before blocking or document the serialization with //gk:allow lockcheck",
			k, what, r.c.Fset.Position(opPos))
	}
}

func (r *lockReporter) doubleLock(pos token.Pos, key string, firstPos token.Pos) {
	if r == nil {
		return
	}
	r.c.Reportf("lockcheck", pos, "%s may already be held here (acquired at %s); sync.Mutex is not reentrant",
		key, r.c.Fset.Position(firstPos))
}

// Check implements Analyzer.
func (a *LockCheck) Check(c *Context) {
	stream := a.StreamPackages[c.Pkg.Path]
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, body := range funcBodies(fd) {
				a.checkContext(c, stream, body)
			}
		}
	}
}

func (a *LockCheck) checkContext(c *Context, stream bool, body *ast.BlockStmt) {
	info := c.Pkg.Info
	g := BuildCFG(info, body)
	comms := selectComms(body)
	transfer := func(bl *Block, in lockFact, rep *lockReporter) lockFact {
		out := in.clone()
		for _, n := range bl.Nodes {
			a.transferNode(c, info, stream, n, comms, out, rep)
		}
		return out
	}
	in := forwardDataflow(g, lockFact{},
		func(bl *Block, f lockFact) lockFact { return transfer(bl, f, nil) },
		lockJoin, lockEqual)

	// Reporting pass: replay each reachable block once with the solved
	// in-facts, so rule 2 and rule 3 fire exactly once per site.
	rep := &lockReporter{c: c, reported: map[token.Pos]bool{}}
	for _, bl := range g.ReversePostorder() {
		transfer(bl, in[bl], rep)
	}

	// Rule 1: anything still held at the synthetic exit without a deferred
	// unlock leaked on some path.
	exit, ok := in[g.Exit]
	if !ok {
		return // no normal path out (infinite loop or unconditional panic)
	}
	for _, k := range sortedKeys(exit) {
		h := exit[k]
		if h.deferred {
			continue
		}
		c.Reportf("lockcheck", h.pos, "%s acquired here is not released on every path out of the function; unlock on each branch or defer the unlock", k)
	}
}

func (a *LockCheck) transferNode(c *Context, info *types.Info, stream bool, n ast.Node, comms map[ast.Node]bool, out lockFact, rep *lockReporter) {
	if comms[n] {
		// A select communication clause blocks (or not) as part of its
		// select; the SelectStmt marker already judged that.
		return
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		// A deferred unlock covers every path out from here on.
		if key, op, ok := lockOp(info, n.Call); ok && (op == opUnlock || op == opRUnlock) {
			if h, held := out[key]; held {
				h.deferred = true
				out[key] = h
			}
		}
		return
	case *ast.RangeStmt:
		if stream && isChanType(info.TypeOf(n.X)) {
			rep.blocking(out, n.Pos(), "range over a channel")
		}
		return
	case *ast.SelectStmt:
		if stream && !selectHasDefault(n) {
			rep.blocking(out, n.Pos(), "select")
		}
		return
	}
	shallowWalk(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if key, op, ok := lockOp(info, m); ok {
				switch op {
				case opLock:
					if h, held := out[key]; held && !h.read {
						rep.doubleLock(m.Pos(), key, h.pos)
					}
					out[key] = lockHeld{pos: m.Pos()}
				case opRLock:
					if _, held := out[key]; !held {
						out[key] = lockHeld{pos: m.Pos(), read: true}
					}
				case opUnlock, opRUnlock:
					delete(out, key)
				}
				return true
			}
			if stream && isSyncWait(info, m) {
				rep.blocking(out, m.Pos(), fmt.Sprintf("%s call", types.ExprString(m.Fun)))
			}
		case *ast.SendStmt:
			if stream {
				rep.blocking(out, m.Arrow, "channel send")
			}
		case *ast.UnaryExpr:
			if stream && m.Op == token.ARROW {
				rep.blocking(out, m.OpPos, "channel receive")
			}
		}
		return true
	})
}
