package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// A Program is the whole-module view the flow analyzers share: an index
// of declared functions, a static call graph with interface calls
// resolved against the module's method sets (maporder's sink
// reachability), and a CFG cache (maporder and closeleak). lint.Run
// builds one Program per invocation and hands it to every Pass.
type Program struct {
	// Funcs indexes every function and method declared with a body in
	// the loaded packages.
	Funcs map[*types.Func]*FuncInfo

	// funcOrder lists the keys of Funcs in source order so iteration is
	// deterministic.
	funcOrder []*types.Func

	// siteByCall finds the resolved CallSite for a call expression.
	siteByCall map[*ast.CallExpr]CallSite

	cfgs map[*ast.BlockStmt]*CFG
}

// A FuncInfo is one declared function with its call sites.
type FuncInfo struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the static call sites in the function's body, including
	// those inside nested function literals (a literal runs with the
	// declaring function's identity for reachability purposes).
	Calls []CallSite
}

// A CallSite is one resolved static call.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the invoked function: a concrete function or method, or
	// an interface method. Never nil.
	Callee *types.Func
	// Impls lists, for an interface-method callee, the module's concrete
	// methods the call can dispatch to (sorted by position). Empty for
	// direct calls.
	Impls []*types.Func
}

// BuildProgram indexes the packages and resolves the call graph.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Funcs:      map[*types.Func]*FuncInfo{},
		siteByCall: map[*ast.CallExpr]CallSite{},
		cfgs:       map[*ast.BlockStmt]*CFG{},
	}
	// Pass 1: index declared functions and collect the module's concrete
	// named types (the candidates interface dispatch resolves against).
	var concrete []types.Type
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue // type error around the declaration
				}
				prog.Funcs[fn] = &FuncInfo{Func: fn, Decl: fd, Pkg: pkg}
				prog.funcOrder = append(prog.funcOrder, fn)
			}
		}
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			concrete = append(concrete, named)
		}
	}
	// Pass 2: resolve call sites.
	for _, fn := range prog.funcOrder {
		info := prog.Funcs[fn]
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info.Pkg.Info, call)
			if callee == nil {
				return true // builtin, conversion, or unresolved
			}
			site := CallSite{Call: call, Callee: callee}
			if iface := recvInterface(callee); iface != nil {
				site.Impls = implementationsOf(concrete, iface, callee, prog)
			}
			info.Calls = append(info.Calls, site)
			prog.siteByCall[call] = site
			return true
		})
	}
	return prog
}

// recvInterface returns the interface type callee is a method of, or nil
// for concrete functions and methods.
func recvInterface(f *types.Func) *types.Interface {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return iface
	}
	return nil
}

// implementationsOf finds the module's declared methods an interface call
// can dispatch to.
func implementationsOf(concrete []types.Type, iface *types.Interface, method *types.Func, prog *Program) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	for _, t := range concrete {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, method.Pkg(), method.Name())
		fn, ok := obj.(*types.Func)
		if !ok || seen[fn] {
			continue
		}
		// Only methods we hold a body for matter to reachability.
		if _, declared := prog.Funcs[fn]; declared {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// SiteOf returns the resolved call site for a call expression, if the
// call sits inside an indexed function body.
func (prog *Program) SiteOf(call *ast.CallExpr) (CallSite, bool) {
	site, ok := prog.siteByCall[call]
	return site, ok
}

// CFGOf returns the (cached) control-flow graph of a function body.
func (prog *Program) CFGOf(body *ast.BlockStmt) *CFG {
	if cfg, ok := prog.cfgs[body]; ok {
		return cfg
	}
	cfg := BuildCFG(body)
	prog.cfgs[body] = cfg
	return cfg
}

// Reaches computes the set of declared functions from which a call to a
// function satisfying isSink is reachable — the shared "sink
// reachability" query. A function is in the set if any of its call sites
// invokes a sink directly (the callee itself satisfies isSink, whether or
// not it is declared in the module) or invokes — possibly through
// interface dispatch — a declared function already in the set. The
// fixpoint runs over the static call graph, so dynamic calls through
// stored function values are not followed.
func (prog *Program) Reaches(isSink func(*types.Func) bool) map[*types.Func]bool {
	reaches := map[*types.Func]bool{}
	// Iterate to fixpoint; the call graph is small (one module) and each
	// round only ever adds functions, so this terminates in at most
	// len(Funcs) rounds.
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.funcOrder {
			if reaches[fn] {
				continue
			}
			info := prog.Funcs[fn]
			for _, site := range info.Calls {
				if prog.siteReaches(site, isSink, reaches) {
					reaches[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return reaches
}

// siteReaches reports whether one call site hits a sink under the current
// reaches set.
func (prog *Program) siteReaches(site CallSite, isSink func(*types.Func) bool, reaches map[*types.Func]bool) bool {
	if isSink(site.Callee) || reaches[site.Callee] {
		return true
	}
	for _, impl := range site.Impls {
		if isSink(impl) || reaches[impl] {
			return true
		}
	}
	return false
}

// SinkPath renders a short witness of how callee reaches a sink, for
// finding messages: "f -> g -> sinkpkg.Sink". It follows the first
// sink-reaching call site at each hop (deterministic: call sites are in
// source order) and stops after a few hops.
func (prog *Program) SinkPath(callee *types.Func, isSink func(*types.Func) bool, reaches map[*types.Func]bool) string {
	var hops []string
	cur := callee
	for range [6]int{} {
		hops = append(hops, funcDisplayName(cur))
		if isSink(cur) {
			return strings.Join(hops, " -> ")
		}
		info, ok := prog.Funcs[cur]
		if !ok {
			break
		}
		next := (*types.Func)(nil)
		for _, site := range info.Calls {
			if isSink(site.Callee) || reaches[site.Callee] {
				next = site.Callee
				break
			}
			for _, impl := range site.Impls {
				if isSink(impl) || reaches[impl] {
					next = impl
					break
				}
			}
			if next != nil {
				break
			}
		}
		if next == nil {
			break
		}
		cur = next
	}
	if len(hops) > 0 && !isSink(cur) {
		hops = append(hops, "...")
	}
	return strings.Join(hops, " -> ")
}

// funcPkgPathHasSuffix reports whether f is declared in a package whose
// import path ends with the given suffix.
func funcPkgPathHasSuffix(f *types.Func, suffix string) bool {
	return f != nil && f.Pkg() != nil && pathHasSuffix(f.Pkg().Path(), suffix)
}
