package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A CFG is the control-flow graph of one function body. Blocks hold
// statements (and the control expressions that guard them) in evaluation
// order; edges follow Go's structured control flow. One synthetic Exit
// block collects every way out of the function: returns, panics, and
// falling off the end. Defer statements appear as ordinary nodes in the
// block that registers them — analyzers that care about function-exit
// effects (closeleak) interpret a registered defer as running
// at every subsequent exit.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // Entry first, Exit last, interior blocks in creation order
}

// A Block is one straight-line run of nodes.
type Block struct {
	Index int
	// Kind labels what created the block, for debug dumps and tests.
	Kind string
	// Nodes are statements and guard expressions in evaluation order.
	// Guard expressions (an if condition, a range operand) appear before
	// the branch's blocks.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

func (b *Block) addSucc(s *Block) {
	if b == nil || s == nil {
		return
	}
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// String renders the graph compactly for tests and debugging:
// "0[entry]->1,2 1[if.then]->3 ...".
func (c *CFG) String() string {
	var parts []string
	for _, b := range c.Blocks {
		var succ []string
		for _, s := range b.Succs {
			succ = append(succ, fmt.Sprint(s.Index))
		}
		parts = append(parts, fmt.Sprintf("%d[%s]->%s", b.Index, b.Kind, strings.Join(succ, ",")))
	}
	return strings.Join(parts, " ")
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{}
	b.cfg = &CFG{}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Kind: "exit"}
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	// Falling off the end of the body exits the function.
	b.jump(b.cfg.Exit)
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

type loopFrame struct {
	label         string
	brk, cont     *Block
	isSwitchOrSel bool
	fallthroughTo *Block
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block // nil while control cannot reach the next statement
	loops []*loopFrame
	// pendingLabel names the loop/switch statement that follows a
	// labeled statement, so labeled break/continue resolve.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump wires the current block to target and leaves the builder with no
// current block (control has transferred).
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.addSucc(target)
	}
	b.cur = nil
}

// startBlock makes blk current, as the continuation of the previous
// current block when one exists.
func (b *cfgBuilder) startBlock(blk *Block) {
	if b.cur != nil {
		b.cur.addSucc(blk)
	}
	b.cur = blk
}

// add appends a node to the current block, materializing an unreachable
// block if control already transferred (so dead statements still get
// facts — analyzers should not crash on them).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// frame finds the innermost loop (or, for break, switch/select) frame,
// optionally by label.
func (b *cfgBuilder) frame(label string, forBreak bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if label != "" && f.label != label {
			continue
		}
		if !forBreak && f.isSwitchOrSel {
			continue // continue skips switch frames
		}
		return f
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch stmt := s.(type) {
	case *ast.BlockStmt:
		b.stmts(stmt.List)

	case *ast.LabeledStmt:
		b.pendingLabel = stmt.Label.Name
		b.stmt(stmt.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(stmt)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		b.add(stmt)
		label := ""
		if stmt.Label != nil {
			label = stmt.Label.Name
		}
		switch stmt.Tok {
		case token.BREAK:
			if f := b.frame(label, true); f != nil {
				b.jump(f.brk)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if f := b.frame(label, false); f != nil {
				b.jump(f.cont)
			} else {
				b.cur = nil
			}
		case token.FALLTHROUGH:
			if f := b.frame("", true); f != nil && f.fallthroughTo != nil {
				b.jump(f.fallthroughTo)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			// Rare in this codebase; treated conservatively as leaving
			// the function so facts stay sound (nothing downstream is
			// assumed released/sorted).
			b.jump(b.cfg.Exit)
		}

	case *ast.ExprStmt:
		b.add(stmt)
		if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok && isPanicCall(call) {
			b.jump(b.cfg.Exit)
		}

	case *ast.IfStmt:
		if stmt.Init != nil {
			b.stmt(stmt.Init)
		}
		b.add(stmt.Cond)
		cond := b.cur
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		then.Nodes = append(then.Nodes, &Assume{Cond: stmt.Cond, Truth: true})
		cond.addSucc(then)
		b.cur = then
		b.stmts(stmt.Body.List)
		b.jump(join)
		// The false edge always gets its own block so the negative Assume
		// has somewhere to live (the join may have other predecessors).
		els := b.newBlock("if.else")
		els.Nodes = append(els.Nodes, &Assume{Cond: stmt.Cond, Truth: false})
		cond.addSucc(els)
		b.cur = els
		if stmt.Else != nil {
			b.stmt(stmt.Else)
		}
		b.jump(join)
		b.cur = join

	case *ast.ForStmt:
		if stmt.Init != nil {
			b.stmt(stmt.Init)
		}
		head := b.newBlock("for.head")
		b.startBlock(head)
		if stmt.Cond != nil {
			b.add(stmt.Cond)
		}
		body := b.newBlock("for.body")
		join := b.newBlock("for.join")
		post := head
		if stmt.Post != nil {
			post = b.newBlock("for.post")
		}
		head.addSucc(body)
		if stmt.Cond != nil {
			head.addSucc(join) // condition false
		}
		b.loops = append(b.loops, &loopFrame{label: b.pendingLabel, brk: join, cont: post})
		b.pendingLabel = ""
		b.cur = body
		b.stmts(stmt.Body.List)
		if stmt.Post != nil {
			b.jump(post)
			b.cur = post
			b.stmt(stmt.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = join

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		b.startBlock(head)
		b.add(stmt) // the range statement itself guards the body
		body := b.newBlock("range.body")
		join := b.newBlock("range.join")
		head.addSucc(body)
		head.addSucc(join) // exhausted
		b.loops = append(b.loops, &loopFrame{label: b.pendingLabel, brk: join, cont: head})
		b.pendingLabel = ""
		b.cur = body
		b.stmts(stmt.Body.List)
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = join

	case *ast.SwitchStmt:
		if stmt.Init != nil {
			b.stmt(stmt.Init)
		}
		if stmt.Tag != nil {
			b.add(stmt.Tag)
		}
		b.caseBodies(stmt.Body, false)

	case *ast.TypeSwitchStmt:
		if stmt.Init != nil {
			b.stmt(stmt.Init)
		}
		b.add(stmt.Assign)
		b.caseBodies(stmt.Body, false)

	case *ast.SelectStmt:
		b.add(stmt) // the blocking point itself
		b.caseBodies(stmt.Body, true)

	case *ast.GoStmt, *ast.DeferStmt, *ast.AssignStmt, *ast.DeclStmt,
		*ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		b.add(s)
	}
}

// caseBodies builds the blocks of a switch/type-switch/select body. Every
// clause body is a successor of the header; a missing default adds a
// direct header->join edge.
func (b *cfgBuilder) caseBodies(body *ast.BlockStmt, isSelect bool) {
	header := b.cur
	if header == nil {
		header = b.newBlock("unreachable")
		b.cur = header
	}
	join := b.newBlock("switch.join")
	kind := "case"
	if isSelect {
		kind = "comm"
	}
	var clauses []ast.Stmt
	for _, c := range body.List {
		clauses = append(clauses, c)
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock(kind)
	}
	hasDefault := false
	frame := &loopFrame{label: b.pendingLabel, brk: join, isSwitchOrSel: true}
	b.pendingLabel = ""
	b.loops = append(b.loops, frame)
	for i, c := range clauses {
		var bodyStmts []ast.Stmt
		var guards []ast.Node
		isDefault := false
		switch cc := c.(type) {
		case *ast.CaseClause:
			bodyStmts = cc.Body
			isDefault = cc.List == nil
			for _, e := range cc.List {
				guards = append(guards, e)
			}
		case *ast.CommClause:
			bodyStmts = cc.Body
			isDefault = cc.Comm == nil
			if cc.Comm != nil {
				guards = append(guards, cc.Comm)
			}
		}
		if isDefault {
			hasDefault = true
		}
		header.addSucc(blocks[i])
		b.cur = blocks[i]
		for _, g := range guards {
			b.add(g)
		}
		if i+1 < len(blocks) {
			frame.fallthroughTo = blocks[i+1]
		} else {
			frame.fallthroughTo = nil
		}
		b.stmts(bodyStmts)
		b.jump(join)
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault || len(clauses) == 0 {
		header.addSucc(join)
	}
	b.cur = join
}

// An Assume is a synthetic CFG node recording that a branch condition is
// known true or false on entry to a block — the then-branch of an if
// carries Assume{Cond, true}, the else/fall-through edge Assume{Cond,
// false}. Transfer functions that care about path conditions (closeleak's
// "the handle is invalid when its paired error is non-nil") refine their
// facts on it; everything else ignores it. Assume is NOT a node ast.Walk
// knows, so transfer functions must type-switch on it before handing a
// node to ast.Inspect.
type Assume struct {
	Cond  ast.Expr
	Truth bool
}

// Pos and End delegate to the condition, so Assume satisfies ast.Node.
func (a *Assume) Pos() token.Pos { return a.Cond.Pos() }
func (a *Assume) End() token.Pos { return a.Cond.End() }

// AssumeNilness interprets an Assume over a `X == nil` / `X != nil`
// comparison of a simple identifier: it returns the identifier and
// whether the assumed path has X non-nil. ok is false for any other
// condition shape.
func (a *Assume) AssumeNilness() (id *ast.Ident, nonNil, ok bool) {
	bin, isBin := ast.Unparen(a.Cond).(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, false, false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) {
		return nil, false, false
	}
	ident, isIdent := x.(*ast.Ident)
	if !isIdent {
		return nil, false, false
	}
	// X != nil assumed true, or X == nil assumed false, means X is non-nil.
	return ident, (bin.Op == token.NEQ) == a.Truth, true
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isPanicCall reports a direct call of the builtin panic.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// --- forward dataflow ---

// Facts is a set of analysis facts (keys must be comparable: a
// types.Object, a token.Pos, a small struct).
type Facts map[any]bool

// Clone copies the set.
func (f Facts) Clone() Facts {
	c := make(Facts, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

func (f Facts) equal(g Facts) bool {
	if len(f) != len(g) {
		return false
	}
	for k := range f {
		if !g[k] {
			return false
		}
	}
	return true
}

// union adds g's facts into f, reporting whether f grew.
func (f Facts) union(g Facts) bool {
	grew := false
	for k := range g {
		if !f[k] {
			f[k] = true
			grew = true
		}
	}
	return grew
}

// maxFixpointRounds bounds the solver. Gen/kill transfers over a union
// join converge in O(blocks) rounds; the bound exists so a buggy
// (non-monotone) transfer surfaces as a loud failure instead of a hang.
const maxFixpointRounds = 10000

// SolveForward runs a forward may-analysis to fixpoint: a block's input
// is the union of its predecessors' outputs, its output the result of
// applying transfer to every node in order. It returns the input facts of
// every block; analyzers replay transfer over a block's nodes to get the
// facts at a particular node. transfer must mutate and return in (the
// solver clones between blocks) and must be monotone in the usual
// gen/kill sense.
func SolveForward(cfg *CFG, entry Facts, transfer func(n ast.Node, in Facts) Facts) map[*Block]Facts {
	in := make(map[*Block]Facts, len(cfg.Blocks))
	out := make(map[*Block]Facts, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		in[b] = Facts{}
		out[b] = Facts{}
	}
	in[cfg.Entry] = entry.Clone()
	// Worklist seeded with every block in index order (deterministic).
	work := make([]*Block, len(cfg.Blocks))
	copy(work, cfg.Blocks)
	queued := make([]bool, len(cfg.Blocks))
	for i := range queued {
		queued[i] = true
	}
	rounds := 0
	for len(work) > 0 {
		if rounds++; rounds > maxFixpointRounds {
			panic("lint: dataflow fixpoint did not converge (non-monotone transfer?)") //nolint:paniclib // analyzer-internal invariant: a bounded worklist over monotone gen/kill transfers always converges; reaching this is a lint bug worth a loud crash
		}
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		for _, p := range b.Preds {
			in[b].union(out[p])
		}
		o := in[b].Clone()
		for _, n := range b.Nodes {
			o = transfer(n, o)
		}
		if !o.equal(out[b]) {
			out[b] = o
			for _, s := range b.Succs {
				if !queued[s.Index] {
					queued[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}
	return in
}

// FactsAt replays transfer over the nodes of node's block up to (not
// including) node, starting from the block's solved input facts — the
// facts that hold immediately before node executes.
func FactsAt(cfg *CFG, in map[*Block]Facts, node ast.Node, transfer func(n ast.Node, in Facts) Facts) Facts {
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if n == node {
				f := in[b].Clone()
				for _, m := range b.Nodes {
					if m == node {
						return f
					}
					f = transfer(m, f)
				}
			}
		}
	}
	return Facts{}
}
