package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder reports map-range iterations whose per-iteration effects reach
// an order-sensitive serialization sink — wire encoding, trace/metrics
// export, manifest or JSON serialization — without an intervening sort.
// Go randomizes map iteration order on purpose, and every acceptance pin
// in this repo (byte-identical serial-vs-parallel snapshots, seed-replay-
// identical Chrome traces, golden Prometheus expositions) assumes the
// bytes that cross a choke point are a pure function of the inputs. A
// single `for k, v := range m { encode(v) }` quietly breaks all of them.
//
// The analysis is order-taint dataflow, not value taint: the problem is
// the *sequence* of sink calls, so a slice appended to inside a map range
// inherits the taint, sort.* / slices.Sort* cleanse it, and a later range
// over the cleansed slice is fine. Sink reachability is interprocedural
// over the module call graph (Program.Reaches), so a loop body that calls
// a helper which eventually hits the wire is still flagged. Counting,
// summing, and building maps/sets inside a map range stay out of scope —
// they are order-insensitive.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "no map-range iteration whose effects reach wire encoding, trace/metrics export, or serialization without an intervening sort",
	Run:  runMapOrder,
}

// mapOrderSink classifies callees whose call order is observable in
// serialized output. Kept deliberately curated: order-insensitive APIs
// (metric Inc/Add, map inserts) must not be here or the analyzer drowns
// real findings in noise.
func mapOrderSink(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "encoding/json", "encoding/binary", "encoding/gob", "encoding/xml":
		return true
	case "fmt":
		// Writer-directed output is a sink; Sprintf into a local is not —
		// the string's later use decides, and if it lands in a slice the
		// taint rules carry it there.
		return strings.HasPrefix(f.Name(), "Fprint")
	}
	// Module-side order-sensitive choke points.
	switch {
	case funcPkgPathHasSuffix(f, "internal/obs"):
		// Track creation order fixes Perfetto pid/tid numbering; span
		// emission order tie-breaks export sorting; scope IDs are
		// allocated in call order.
		switch f.Name() {
		case "Track", "Emit", "Span", "Begin", "BeginAt", "NewScope":
			return true
		}
	case funcPkgPathHasSuffix(f, "internal/scif"):
		// Anything that puts bytes on the fabric, in order.
		switch f.Name() {
		case "Send", "WriteTo", "VWriteTo", "ReadFrom", "VReadFrom":
			return true
		}
	case funcPkgPathHasSuffix(f, "internal/snapifyio"):
		// Stream writes are wire messages; Open/Close order shows up in
		// daemon-side stream IDs and virtual-clock accounting.
		switch f.Name() {
		case "WriteBlob", "WriteBlobAt", "Flush", "Open", "OpenStream", "Close":
			return true
		}
	case funcPkgPathHasSuffix(f, "internal/snapstore"):
		// Upload/commit order is manifest and negotiation order.
		switch f.Name() {
		case "BeginUpload", "Commit", "Put", "Release", "Retain":
			return true
		}
	}
	return false
}

// mapOrderCleanser reports calls that impose a deterministic order on
// their first (slice) argument in place.
func mapOrderCleanser(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "sort":
		switch f.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		return strings.HasPrefix(f.Name(), "Sort")
	}
	return false
}

func runMapOrder(p *Pass) {
	reaches := p.Prog.Reaches(mapOrderSink)
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapOrderFunc(p, fd.Body, reaches)
		}
	}
}

// mapOrderChecker carries the per-function analysis state.
type mapOrderChecker struct {
	pass    *Pass
	info    *types.Info
	cfg     *CFG
	reaches map[*types.Func]bool
	// enclosingRanges maps each assignment statement to the range
	// statements lexically surrounding it, innermost last.
	enclosingRanges map[*ast.AssignStmt][]*ast.RangeStmt
	in              map[*Block]Facts
}

// checkMapOrderFunc runs the order-taint analysis over one function body.
// Function literals nested in the body are part of the same CFG-free
// lexical region; their statements are visited by the same inspection, so
// taint into and out of a literal is approximated lexically.
func checkMapOrderFunc(p *Pass, body *ast.BlockStmt, reaches map[*types.Func]bool) {
	c := &mapOrderChecker{
		pass:            p,
		info:            p.Pkg.Info,
		cfg:             p.Prog.CFGOf(body),
		reaches:         reaches,
		enclosingRanges: map[*ast.AssignStmt][]*ast.RangeStmt{},
	}
	// Precompute the lexical range-nesting of every assignment, so the
	// transfer function can tell "this append runs in map order".
	var stack []*ast.RangeStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.RangeStmt:
			stack = append(stack, node)
			ast.Inspect(node.Body, walk)
			stack = stack[:len(stack)-1]
			return false
		case *ast.AssignStmt:
			if len(stack) > 0 {
				c.enclosingRanges[node] = append([]*ast.RangeStmt(nil), stack...)
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	c.in = SolveForward(c.cfg, Facts{}, c.transfer)

	// Visit every range statement: a range over a map, or over an
	// order-tainted slice, makes the body's iteration order
	// nondeterministic; any sink-reaching call inside is a finding. A
	// sink-reaching call taking a tainted slice as argument outside any
	// such loop is also a finding (the order rides in, serialized there).
	for _, b := range c.cfg.Blocks {
		for _, n := range b.Nodes {
			if rng, ok := n.(*ast.RangeStmt); ok {
				facts := FactsAt(c.cfg, c.in, rng, c.transfer)
				if src := c.rangeOrderSource(rng, facts); src != "" {
					c.reportSinks(rng, src)
					continue
				}
			}
			c.checkTaintedArgs(n)
		}
	}
}

// transfer is the dataflow transfer function: facts are the set of
// order-tainted variable objects.
func (c *mapOrderChecker) transfer(n ast.Node, in Facts) Facts {
	switch stmt := n.(type) {
	case *ast.AssignStmt:
		inMapLoop := false
		for _, rng := range c.enclosingRanges[stmt] {
			if c.rangeOrderSource(rng, in) != "" {
				inMapLoop = true
				break
			}
		}
		for i, lhs := range stmt.Lhs {
			obj := assignedObj(c.info, lhs)
			if obj == nil {
				continue
			}
			var rhs ast.Expr
			if len(stmt.Rhs) == len(stmt.Lhs) {
				rhs = stmt.Rhs[i]
			} else if len(stmt.Rhs) == 1 {
				rhs = stmt.Rhs[0]
			}
			switch {
			case rhs != nil && inMapLoop && isAppendOf(c.info, rhs, obj):
				// s = append(s, ...) in map order: the slice's element
				// order is now nondeterministic.
				in[obj] = true
			case rhs != nil && c.rhsOrderTainted(rhs, in):
				in[obj] = true
			case len(stmt.Rhs) == len(stmt.Lhs):
				// Plain overwrite with untainted data cleanses.
				delete(in, obj)
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
			if f := calleeFunc(c.info, call); mapOrderCleanser(f) && len(call.Args) > 0 {
				if obj := assignedObj(c.info, call.Args[0]); obj != nil {
					delete(in, obj)
				}
			}
		}
	}
	return in
}

// rangeOrderSource classifies a range statement's iteration order under
// the given facts: "a map" for map operands, a description for
// order-tainted slices, "" for deterministic iteration.
func (c *mapOrderChecker) rangeOrderSource(rng *ast.RangeStmt, facts Facts) string {
	if tv, ok := c.info.Types[rng.X]; ok && isMapType(tv.Type) {
		return "a map"
	}
	if obj := assignedObj(c.info, rng.X); obj != nil && facts[obj] {
		return "a slice built in map-iteration order (no intervening sort)"
	}
	return ""
}

// reportSinks scans a nondeterministically-ordered loop body for calls
// that are (or reach) a serialization sink.
func (c *mapOrderChecker) reportSinks(rng *ast.RangeStmt, source string) {
	reported := map[token.Pos]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rng {
			// A nested map range is reported on its own visit; skip its
			// body to avoid double findings.
			if tv, ok := c.info.Types[inner.X]; ok && isMapType(tv.Type) {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call.Pos()] {
			return true
		}
		if how := c.sinkHow(call); how != "" {
			reported[call.Pos()] = true
			c.pass.Reportf(rng.Pos(), "iteration over %s %s at line %d: iteration order is nondeterministic and leaks into serialized output; collect and sort first",
				source, how, c.pass.Pkg.Fset.Position(call.Pos()).Line)
		}
		return true
	})
}

// sinkHow describes how a call hits a serialization sink ("" if it does
// not): directly, through the call graph, or through interface dispatch.
func (c *mapOrderChecker) sinkHow(call *ast.CallExpr) string {
	f := calleeFunc(c.info, call)
	if f == nil {
		return ""
	}
	if mapOrderSink(f) {
		return "calls " + funcDisplayName(f)
	}
	if c.reaches[f] {
		return "reaches a serialization sink via " + c.pass.Prog.SinkPath(f, mapOrderSink, c.reaches)
	}
	if site, ok := c.pass.Prog.SiteOf(call); ok {
		for _, impl := range site.Impls {
			if mapOrderSink(impl) || c.reaches[impl] {
				return "may dispatch to sink-reaching " + funcDisplayName(impl)
			}
		}
	}
	return ""
}

// checkTaintedArgs reports sink-reaching calls handed an order-tainted
// slice outside a flagged loop: the nondeterministic order rides into the
// callee and is serialized there.
func (c *mapOrderChecker) checkTaintedArgs(n ast.Node) {
	if _, isAssume := n.(*Assume); isAssume {
		return // synthetic guard node; ast.Inspect cannot walk it
	}
	facts := FactsAt(c.cfg, c.in, n, c.transfer)
	if len(facts) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(c.info, call)
		if f == nil || (!mapOrderSink(f) && !c.reaches[f]) {
			return true
		}
		for _, arg := range call.Args {
			obj := assignedObj(c.info, arg)
			if obj == nil || !facts[obj] {
				continue
			}
			c.pass.Reportf(call.Pos(), "%s is called with %q, a slice built in map-iteration order (no intervening sort), and reaches a serialization sink (%s)",
				funcDisplayName(f), obj.Name(), c.pass.Prog.SinkPath(f, mapOrderSink, c.reaches))
			return false
		}
		return true
	})
}

// rhsOrderTainted reports whether an assignment's right-hand side carries
// order taint: a tainted identifier, an append of tainted operands, a
// slice of a tainted value, or maps.Keys/Values (whose order is the map's).
func (c *mapOrderChecker) rhsOrderTainted(rhs ast.Expr, facts Facts) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		obj := c.info.Uses[e]
		return obj != nil && facts[obj]
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && isBuiltinAppend(c.info, id) {
			for _, a := range e.Args {
				if c.rhsOrderTainted(a, facts) {
					return true
				}
			}
			return false
		}
		if f := calleeFunc(c.info, e); f != nil && f.Pkg() != nil {
			switch {
			case f.Pkg().Path() == "maps" && (f.Name() == "Keys" || f.Name() == "Values"):
				return true
			case f.Pkg().Path() == "slices" && f.Name() == "Collect":
				for _, a := range e.Args {
					if c.rhsOrderTainted(a, facts) {
						return true
					}
				}
			}
		}
		return false
	case *ast.SliceExpr:
		return c.rhsOrderTainted(e.X, facts)
	case *ast.IndexExpr:
		return c.rhsOrderTainted(e.X, facts)
	}
	return false
}

// isAppendOf reports whether rhs is append(obj, ...).
func isAppendOf(info *types.Info, rhs ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || !isBuiltinAppend(info, id) || len(call.Args) == 0 {
		return false
	}
	return assignedObj(info, call.Args[0]) == obj
}

// isBuiltinAppend reports whether id resolves to the append builtin (a
// local identifier named append shadows it and does not count).
func isBuiltinAppend(info *types.Info, id *ast.Ident) bool {
	if id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// assignedObj resolves an assignable expression to its variable object
// when it is a simple identifier (locals are what the taint rules track).
func assignedObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isMapType reports whether t is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
