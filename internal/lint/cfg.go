package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfg.go is the shared flow engine under three of the six analyzers
// (lockcheck, chanlife, wrapcheck): a statement-granularity control-flow
// graph over go/ast plus a generic forward worklist solver. The other three
// (noalloc, coordsafe, errcheck) are syntactic — they judge one statement at
// a time — but lock discipline, channel lifetime, and error provenance are
// path properties ("released on every path out", "no send reachable after
// the close"), and those need basic blocks and per-path facts.
//
// Design decisions, in the order they bite:
//
//   - Blocks hold ast.Node values, not only statements: an if condition or a
//     switch tag is an expression evaluated in the predecessor block, and
//     analyses must see its effects there. The builder never appends a
//     compound statement whole — control structure is encoded as edges — with
//     two deliberate exceptions, *ast.RangeStmt and *ast.SelectStmt, which
//     appear as per-iteration/blocking markers that analyses must interpret
//     without descending into their bodies (the bodies have their own
//     blocks).
//   - Nested function literals are opaque: their bodies never enter the
//     enclosing function's graph. funcBodies enumerates each literal's body
//     as an analysis context of its own (a goroutine literal holds and
//     releases its own locks and closes its own channels).
//   - Calls that cannot return (panic, os.Exit, runtime.Goexit, log.Fatal*)
//     terminate their block with no successor. A lock held at a panic is not
//     a leak the analyzers chase; only normal exits flow into the synthetic
//     Exit block.
//   - The solver is agnostic about its lattice: the three analyzers all use
//     a union join, which gives may-facts (a lock that may be held, a channel
//     that may be closed, an error that may be opaque).

// Block is one basic block: straight-line nodes and the edges out.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is one function context's control-flow graph. Entry is the first
// block; Exit is a synthetic join of every normal (non-panicking) way out.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

type ctrlFrame struct {
	label      string
	isLoop     bool
	breakTo    *Block
	continueTo *Block
}

type cfgBuilder struct {
	info          *types.Info
	g             *CFG
	cur           *Block // nil after a terminator: following code is unreachable
	frames        []ctrlFrame
	labels        map[string]*Block
	fallthroughTo *Block
}

// BuildCFG builds the graph of one function body. info resolves callees for
// termination analysis; it may be nil in tests.
func BuildCFG(info *types.Info, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{info: info, g: &CFG{}, labels: map[string]*Block{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	for _, s := range body.List {
		b.stmt(s, "")
	}
	b.seal(b.g.Exit)
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	bl := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, bl)
	return bl
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// seal connects the current block (if reachable) to the given join point.
func (b *cfgBuilder) seal(to *Block) { b.edge(b.cur, to) }

// ensure guarantees a current block; code after a terminator lands in a
// fresh predecessor-less block so analyses can still walk it.
func (b *cfgBuilder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
}

func (b *cfgBuilder) append(n ast.Node) {
	b.ensure()
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if bl, ok := b.labels[name]; ok {
		return bl
	}
	bl := b.newBlock()
	b.labels[name] = bl
	return bl
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t, "")
		}
	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.ensure()
		b.seal(target)
		b.cur = target
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.append(s.Cond)
		thenB := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, thenB)
		var elseB *Block
		if s.Else != nil {
			elseB = b.newBlock()
			b.edge(b.cur, elseB)
		} else {
			b.edge(b.cur, after)
		}
		b.cur = thenB
		b.stmt(s.Body, "")
		b.seal(after)
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else, "")
			b.seal(after)
		}
		b.cur = after
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.ensure()
		header := b.newBlock()
		b.seal(header)
		b.cur = header
		if s.Cond != nil {
			b.append(s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(header, body)
		if s.Cond != nil {
			b.edge(header, after)
		}
		contTo := header
		var postB *Block
		if s.Post != nil {
			postB = b.newBlock()
			contTo = postB
		}
		b.frames = append(b.frames, ctrlFrame{label: label, isLoop: true, breakTo: after, continueTo: contTo})
		b.cur = body
		b.stmt(s.Body, "")
		b.seal(contTo)
		b.frames = b.frames[:len(b.frames)-1]
		if s.Post != nil {
			b.cur = postB
			b.stmt(s.Post, "")
			b.seal(header)
		}
		b.cur = after
	case *ast.RangeStmt:
		b.ensure()
		header := b.newBlock()
		b.seal(header)
		header.Nodes = append(header.Nodes, s) // per-iteration marker; analyses look at X/Key/Value only
		body := b.newBlock()
		after := b.newBlock()
		b.edge(header, body)
		b.edge(header, after)
		b.frames = append(b.frames, ctrlFrame{label: label, isLoop: true, breakTo: after, continueTo: header})
		b.cur = body
		b.stmt(s.Body, "")
		b.seal(header)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		b.switchBody(s.Body, label, true, func(head *Block, cc *ast.CaseClause) {
			for _, e := range cc.List {
				head.Nodes = append(head.Nodes, e)
			}
		})
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.append(s.Assign)
		b.switchBody(s.Body, label, false, nil)
	case *ast.SelectStmt:
		b.append(s) // blocking marker; analyses must not descend into clause bodies
		head := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(head, cb)
			b.cur = cb
			if cc.Comm != nil {
				b.append(cc.Comm)
			}
			for _, t := range cc.Body {
				b.stmt(t, "")
			}
			b.seal(after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.ReturnStmt:
		b.append(s)
		b.seal(b.g.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.ensure()
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			for i := len(b.frames) - 1; i >= 0; i-- {
				f := b.frames[i]
				if name == "" || f.label == name {
					b.seal(f.breakTo)
					break
				}
			}
		case token.CONTINUE:
			for i := len(b.frames) - 1; i >= 0; i-- {
				f := b.frames[i]
				if f.isLoop && (name == "" || f.label == name) {
					b.seal(f.continueTo)
					break
				}
			}
		case token.GOTO:
			b.seal(b.labelBlock(name))
		case token.FALLTHROUGH:
			b.seal(b.fallthroughTo)
		}
		b.cur = nil
	default:
		// Simple statements: assignments, sends, calls, defer/go, declarations.
		b.append(s)
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && b.terminates(call) {
				b.cur = nil
			}
		}
	}
}

// switchBody shares the clause wiring of expression and type switches.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, allowFallthrough bool, caseExprs func(*Block, *ast.CaseClause)) {
	b.ensure()
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after})
	clauses := body.List
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if caseExprs != nil {
			caseExprs(head, cc)
		}
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i])
	}
	if !hasDefault {
		b.edge(head, after)
	}
	savedFT := b.fallthroughTo
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.cur = bodies[i]
		b.fallthroughTo = nil
		if allowFallthrough && i+1 < len(clauses) {
			b.fallthroughTo = bodies[i+1]
		}
		for _, t := range cc.Body {
			b.stmt(t, "")
		}
		b.seal(after)
	}
	b.fallthroughTo = savedFT
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// terminates reports whether the call provably never returns.
func (b *cfgBuilder) terminates(call *ast.CallExpr) bool {
	if b.info == nil {
		return false
	}
	switch obj := callee(b.info, call).(type) {
	case *types.Builtin:
		return obj.Name() == "panic"
	case *types.Func:
		if obj.Pkg() == nil {
			return false
		}
		switch obj.Pkg().Path() + "." + obj.Name() {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the iteration order under which forward dataflow converges
// fastest and reporting passes read top-down.
func (g *CFG) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(bl *Block) {
		seen[bl.Index] = true
		for _, s := range bl.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, bl)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// forwardDataflow runs a forward worklist iteration and returns each
// reachable block's in-fact. transfer must be pure in its fact argument and
// monotone; join merges facts at control-flow merges; equal detects the
// fixpoint.
func forwardDataflow[F any](g *CFG, entry F, transfer func(*Block, F) F, join func(F, F) F, equal func(F, F) bool) map[*Block]F {
	rpo := g.ReversePostorder()
	rank := make(map[*Block]int, len(rpo))
	for i, bl := range rpo {
		rank[bl] = i
	}
	in := map[*Block]F{g.Entry: entry}
	inQueue := map[*Block]bool{g.Entry: true}
	queue := []*Block{g.Entry}
	for len(queue) > 0 {
		best := 0
		for i := 1; i < len(queue); i++ {
			if rank[queue[i]] < rank[queue[best]] {
				best = i
			}
		}
		bl := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		inQueue[bl] = false
		out := transfer(bl, in[bl])
		for _, s := range bl.Succs {
			nf := out
			cur, seen := in[s]
			if seen {
				nf = join(cur, out)
			}
			if !seen || !equal(cur, nf) {
				in[s] = nf
				if !inQueue[s] {
					inQueue[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	return in
}

// Function contexts --------------------------------------------------------

// funcBodies enumerates a declaration's analysis contexts: its own body
// first, then the body of every nested function literal.
func funcBodies(fd *ast.FuncDecl) []*ast.BlockStmt {
	bodies := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	return bodies
}

// shallowWalk visits n and its children, skipping nested function literals
// (they are separate contexts). n itself may be a FuncLit's body; only
// literals strictly below n are skipped.
func shallowWalk(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}

// isChanType reports whether t's core type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// selectHasDefault reports whether the select can complete without
// communicating.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// chanIdentObj resolves a channel-typed identifier operand to its object,
// or nil for anything more structured (field selectors, index expressions).
func chanIdentObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || !isChanType(obj.Type()) {
		return nil
	}
	return obj
}
