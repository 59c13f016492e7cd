package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// CloseLeak reports handles acquired from the I/O layers — snapifyio
// streams, snapstore uploads, vfs/nfs writers and files —
// that are not released on every CFG path out of the acquiring function.
// The classic shape is the early error return between two opens:
//
//	src, err := fs.Open(a)
//	if err != nil { return err }
//	dst, err := fs.Create(b)
//	if err != nil { return err } // src leaks here
//
// On the simulated platform a leaked writer means an assembly that is
// never committed or aborted (snapstore GC can then never collect its
// chunks) and a stream slot the daemon counts as live forever.
//
// The analysis is a forward may-analysis over the function's CFG: facts
// are still-live obligations, a release call (direct or deferred) kills,
// and any escape — returning the value, storing it beyond a local,
// passing it to another function, capturing it in a closure —
// conservatively kills too, because ownership has moved to someone this
// intraprocedural pass cannot see. What survives at a function exit is a
// leak.
var CloseLeak = &Analyzer{
	Name: "closeleak",
	Doc:  "every handle opened via snapifyio/snapstore/vfs must be released on all paths out of the function",
	Run:  runCloseLeak,
}

// closeLeakPkgs are the import-path suffixes whose constructors and Open
// methods hand out tracked handles. Interface methods count through the
// package declaring the interface (a stream.Sink's Close lives in stream
// whichever transport implements it).
var closeLeakPkgs = []string{
	"internal/snapifyio",
	"internal/snapstore",
	"internal/vfs",
	"internal/nfs",
	"internal/stream",
}

// closeLeakRelease are the discharging method names: Close for streams
// and files, Abort/Commit for two-phase writers and uploads, Detach for
// endpoints, Discard/Release for store references, Stop for services.
var closeLeakRelease = []string{"Close", "Abort", "Commit", "Detach", "Discard", "Release", "Stop"}

// isHandleSource reports whether a resolved call can hand out a tracked
// handle (the assigned variable's type still has to satisfy isHandle —
// `Open` also returns an error).
func isHandleSource(f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	for _, suffix := range closeLeakPkgs {
		if pathHasSuffix(f.Pkg().Path(), suffix) {
			return true
		}
	}
	return false
}

// isHandle reports whether a variable of type t carries the obligation:
// t (addressably) has a release method that takes no arguments. A method
// with arguments releases something the value holds, not the value —
// snapstore.Store.Release(path) drops one manifest of a long-lived store,
// so a registry accessor returning a *Store hands out no obligation.
func isHandle(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, name := range closeLeakRelease {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Params().Len() == 0 {
			return true
		}
	}
	return false
}

// A leakFact is one live obligation: the local holding the handle, the
// acquire site, and the callee that handed it out. pendingErr, when set,
// is the error variable assigned alongside the handle (`f, err :=
// Open(...)`): until that error is known nil the handle may be invalid,
// so the obligation is conditional. An Assume{err != nil} CFG node kills
// the fact (failed acquire, nothing to release); an Assume{err == nil} or
// a reassignment of the error variable activates it.
type leakFact struct {
	obj        types.Object
	pendingErr types.Object
	pos        token.Pos
	source     *types.Func
}

// runCloseLeak checks every function declaration and literal of the
// pass's package.
func runCloseLeak(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLeakBody(p, fn.Body)
				}
			case *ast.FuncLit:
				// A literal body is its own analysis scope: obligations
				// acquired inside it must be discharged inside it (an
				// acquire in the enclosing function that the literal
				// releases is handled there, as a capture escape).
				checkLeakBody(p, fn.Body)
			}
			return true
		})
	}
}

type leakChecker struct {
	info *types.Info
}

func checkLeakBody(p *Pass, body *ast.BlockStmt) {
	// Cheap pre-scan: most functions acquire nothing.
	hasAcquire := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if f := calleeFunc(p.Pkg.Info, call); f != nil && isHandleSource(f) {
				hasAcquire = true
			}
		}
		return !hasAcquire
	})
	if !hasAcquire {
		return
	}

	c := &leakChecker{info: p.Pkg.Info}
	cfg := p.Prog.CFGOf(body)
	in := SolveForward(cfg, Facts{}, c.transfer)

	reported := map[[2]token.Pos]bool{}
	for _, b := range cfg.Blocks {
		if !hasSucc(b, cfg.Exit) {
			continue
		}
		// Replay the block to get the facts still live as control leaves.
		facts := in[b].Clone()
		for _, n := range b.Nodes {
			facts = c.transfer(n, facts)
		}
		if len(facts) == 0 {
			continue
		}
		exitPos, ok := leakExitPos(b, body)
		if !ok {
			continue // panic or goto: not a path the invariant patrols
		}
		line := p.Pkg.Fset.Position(exitPos).Line
		for _, f := range sortedLeakFacts(facts) {
			key := [2]token.Pos{f.pos, exitPos}
			if reported[key] {
				continue
			}
			reported[key] = true
			p.Reportf(f.pos, "handle %q from %s is not released on the path leaving the function at line %d: close or abort it on the error path (or defer the release)",
				f.obj.Name(), funcDisplayName(f.source), line)
		}
	}
}

func hasSucc(b *Block, s *Block) bool {
	for _, have := range b.Succs {
		if have == s {
			return true
		}
	}
	return false
}

// leakExitPos classifies how a block reaches the exit: a return (report at
// the return), falling off the end of the body (report at the closing
// brace), or a panic/goto (not reported — a panicking process is past
// caring about its handles, and goto edges are conservative CFG
// artifacts).
func leakExitPos(b *Block, body *ast.BlockStmt) (token.Pos, bool) {
	if len(b.Nodes) == 0 {
		return body.Rbrace, true
	}
	switch last := b.Nodes[len(b.Nodes)-1].(type) {
	case *ast.ReturnStmt:
		return last.Pos(), true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok && isPanicCall(call) {
			return token.NoPos, false
		}
	case *ast.BranchStmt:
		if last.Tok == token.GOTO {
			return token.NoPos, false
		}
	}
	return body.Rbrace, true
}

func sortedLeakFacts(facts Facts) []leakFact {
	var out []leakFact
	for k := range facts {
		if f, ok := k.(leakFact); ok {
			out = append(out, f)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].pos < out[j-1].pos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// transfer is the dataflow transfer function. Gen: an acquire call whose
// result lands in a simple local. Kill: a release method call on the
// local, or any escape of the local.
func (c *leakChecker) transfer(n ast.Node, in Facts) Facts {
	switch stmt := n.(type) {
	case *Assume:
		c.assume(stmt, in)
		return in
	case *ast.AssignStmt:
		for _, rhs := range stmt.Rhs {
			c.scanKills(rhs, in)
		}
		// Reassigning an error variable resolves every fact still pending
		// on it: whatever that error reported, its acquire is history now.
		for _, lhs := range stmt.Lhs {
			if obj := assignedObj(c.info, lhs); obj != nil {
				activatePending(in, obj)
			}
		}
		for i, lhs := range stmt.Lhs {
			var rhs ast.Expr
			if len(stmt.Rhs) == len(stmt.Lhs) {
				rhs = stmt.Rhs[i]
			} else if len(stmt.Rhs) == 1 {
				rhs = stmt.Rhs[0]
			}
			c.assign(stmt, lhs, rhs, in)
		}
		return in
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					c.scanKills(v, in)
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 {
						rhs = vs.Values[0]
					}
					c.assign(nil, name, rhs, in)
				}
			}
		}
		return in
	}
	c.scanKills(n, in)
	return in
}

// assume refines conditional facts on a branch guard: on the path where a
// fact's paired error is non-nil the acquire failed and the obligation
// vanishes; on the path where it is nil the obligation becomes
// unconditional.
func (c *leakChecker) assume(a *Assume, in Facts) {
	id, nonNil, ok := a.AssumeNilness()
	if !ok {
		return
	}
	obj := c.info.Uses[id]
	if obj == nil || !isErrorType(obj.Type()) {
		return
	}
	for k := range in {
		f, isFact := k.(leakFact)
		if !isFact || f.pendingErr != obj {
			continue
		}
		delete(in, k)
		if !nonNil {
			f.pendingErr = nil
			in[f] = true
		}
	}
}

// activatePending makes unconditional every fact still pending on obj.
func activatePending(in Facts, obj types.Object) {
	for k := range in {
		if f, ok := k.(leakFact); ok && f.pendingErr == obj {
			delete(in, k)
			f.pendingErr = nil
			in[f] = true
		}
	}
}

// assign processes one lhs/rhs pair of an assignment or value spec. stmt,
// when non-nil, is the enclosing assignment — used to find the error
// variable assigned alongside a tuple-returning acquire.
func (c *leakChecker) assign(stmt *ast.AssignStmt, lhs, rhs ast.Expr, in Facts) {
	obj := assignedObj(c.info, lhs)
	if obj == nil {
		// Storing into a field, index, or dereference: a bare identifier
		// on the right escapes (scanKills only catches nested uses).
		if rhs != nil {
			if src := assignedObj(c.info, rhs); src != nil {
				killLeakObj(in, src)
			}
		}
		return
	}
	if rhs == nil {
		return
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		f := calleeFunc(c.info, call)
		if f != nil && isHandleSource(f) && isHandle(obj.Type()) {
			fact := leakFact{obj: obj, pos: call.Pos(), source: f}
			if stmt != nil {
				for _, other := range stmt.Lhs {
					if sib := assignedObj(c.info, other); sib != nil && sib != obj && isErrorType(sib.Type()) {
						fact.pendingErr = sib
						break
					}
				}
			}
			in[fact] = true
		}
		return
	}
	// Aliasing: `w := f` moves the obligation to the new name.
	if src := assignedObj(c.info, ast.Unparen(rhs)); src != nil {
		for k := range in {
			if f, ok := k.(leakFact); ok && f.obj == src {
				delete(in, k)
				f.obj = obj
				in[f] = true
			}
		}
	}
}

// scanKills walks an expression or statement for release calls and
// escapes of tracked locals.
func (c *leakChecker) scanKills(n ast.Node, in Facts) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && slices.Contains(closeLeakRelease, sel.Sel.Name) {
				if obj := assignedObj(c.info, sel.X); obj != nil {
					killLeakObj(in, obj)
				}
			}
			// Passing the resource to any function hands ownership over.
			for _, a := range e.Args {
				if obj := assignedObj(c.info, a); obj != nil {
					killLeakObj(in, obj)
				}
			}
		case *ast.ReturnStmt:
			// Whatever a result expression mentions is the caller's now.
			for _, r := range e.Results {
				killLeakIdents(c.info, r, in)
			}
			return false
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				killLeakIdents(c.info, el, in)
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if obj := assignedObj(c.info, e.X); obj != nil {
					killLeakObj(in, obj)
				}
			}
		case *ast.FuncLit:
			// Captured by a closure that may discharge it later.
			killLeakIdents(c.info, e.Body, in)
			return false
		}
		return true
	})
}

// killLeakObj removes every fact tracking obj.
func killLeakObj(in Facts, obj types.Object) {
	for k := range in {
		if f, ok := k.(leakFact); ok && f.obj == obj {
			delete(in, k)
		}
	}
}

// killLeakIdents removes facts for every identifier mentioned under n.
func killLeakIdents(info *types.Info, n ast.Node, in Facts) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				killLeakObj(in, obj)
			}
		}
		return true
	})
}
