package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses a statement list as a function body. CFG construction
// is purely syntactic, so no type-checking is needed here.
func parseBody(t *testing.T, stmts string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc fn() { " + stmts + " }"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test_input.go", src, 0)
	if err != nil {
		t.Fatalf("parsing %q: %v", stmts, err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// TestCFGShape pins the block/edge structure the builder produces for
// each control construct. The String form is "index[kind]->succs"; Entry
// is always block 0 and Exit always last.
func TestCFGShape(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"straightline", `a(); b()`,
			"0[entry]->1 1[exit]->"},
		{"if with else: both branches get an Assume block and rejoin", `if c { a() } else { b() }; d()`,
			"0[entry]->2,3 1[if.join]->4 2[if.then]->1 3[if.else]->1 4[exit]->"},
		{"if without else: a synthetic else block still carries the negative Assume", `if c { a() }; d()`,
			"0[entry]->2,3 1[if.join]->4 2[if.then]->1 3[if.else]->1 4[exit]->"},
		{"for with break: back edge through post, break edge to join", `for i := 0; i < n; i++ { if c { break }; a() }; d()`,
			"0[entry]->1 1[for.head]->2,3 2[for.body]->6,7 3[for.join]->8 4[for.post]->1 5[if.join]->4 6[if.then]->3 7[if.else]->5 8[exit]->"},
		{"range: head branches to body and join, body loops back", `for k := range m { a(k) }; d()`,
			"0[entry]->1 1[range.head]->2,3 2[range.body]->1 3[range.join]->4 4[exit]->"},
		{"switch with fallthrough: case 1 falls into case 2", `switch x { case 1: a(); fallthrough; case 2: b(); default: c() }; d()`,
			"0[entry]->2,3,4 1[switch.join]->5 2[case]->3 3[case]->1 4[case]->1 5[exit]->"},
		{"select: every comm clause is a successor of the entry", `select { case <-ch: a(); case ch2 <- 1: b() }; d()`,
			"0[entry]->2,3,1 1[switch.join]->4 2[comm]->1 3[comm]->1 4[exit]->"},
		{"panic: jumps to exit, trailing statements are an unreachable block", `a(); panic("x"); b()`,
			"0[entry]->2 1[unreachable]->2 2[exit]->"},
		{"return inside if: then-block exits directly, else path continues", `f, err := open(); if err != nil { return }; defer f.Close(); use(f)`,
			"0[entry]->2,3 1[if.join]->4 2[if.then]->4 3[if.else]->1 4[exit]->"},
		{"goto: conservative edge to exit", `i := 0; L: if i < n { i++; goto L }; d()`,
			"0[entry]->2,3 1[if.join]->4 2[if.then]->4 3[if.else]->1 4[exit]->"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BuildCFG(parseBody(t, tc.body))
			if got := cfg.String(); got != tc.want {
				t.Errorf("CFG for %q:\n got %s\nwant %s", tc.body, got, tc.want)
			}
		})
	}
}

// TestCFGAssumeNodes pins the synthetic guard refinement: the then block
// starts with Assume{Cond, true}, the (possibly synthetic) else block
// with Assume{Cond, false}, both sharing the if condition.
func TestCFGAssumeNodes(t *testing.T) {
	body := parseBody(t, `if err != nil { a() } else { b() }`)
	cfg := BuildCFG(body)
	cond := body.List[0].(*ast.IfStmt).Cond
	var thenA, elseA *Assume
	for _, b := range cfg.Blocks {
		if len(b.Nodes) == 0 {
			continue
		}
		if a, ok := b.Nodes[0].(*Assume); ok {
			switch b.Kind {
			case "if.then":
				thenA = a
			case "if.else":
				elseA = a
			}
		}
	}
	if thenA == nil || elseA == nil {
		t.Fatalf("missing Assume nodes: then=%v else=%v (cfg %s)", thenA, elseA, cfg.String())
	}
	if !thenA.Truth || elseA.Truth {
		t.Errorf("Assume truths: then=%v else=%v, want true/false", thenA.Truth, elseA.Truth)
	}
	if thenA.Cond != cond || elseA.Cond != cond {
		t.Error("Assume nodes do not share the if condition expression")
	}
	if thenA.Pos() != cond.Pos() || thenA.End() != cond.End() {
		t.Error("Assume does not delegate Pos/End to its condition")
	}
}

// TestAssumeNilness tables the guard classifier used by closeleak's
// error-paired facts.
func TestAssumeNilness(t *testing.T) {
	cases := []struct {
		expr       string
		truth      bool
		wantID     string
		wantNonNil bool
		wantOK     bool
	}{
		{"err != nil", true, "err", true, true},
		{"err != nil", false, "err", false, true},
		{"err == nil", true, "err", false, true},
		{"err == nil", false, "err", true, true},
		{"nil != err", true, "err", true, true},
		{"nil == err", true, "err", false, true},
		{"a == b", true, "", false, false},
		{"err", true, "", false, false},
		{"x < 3", true, "", false, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%v", tc.expr, tc.truth), func(t *testing.T) {
			e, err := parser.ParseExpr(tc.expr)
			if err != nil {
				t.Fatal(err)
			}
			a := &Assume{Cond: e, Truth: tc.truth}
			id, nonNil, ok := a.AssumeNilness()
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				return
			}
			if id.Name != tc.wantID || nonNil != tc.wantNonNil {
				t.Errorf("got (%s, nonNil=%v), want (%s, nonNil=%v)", id.Name, nonNil, tc.wantID, tc.wantNonNil)
			}
		})
	}
}

// nodeGen is a transfer function that records every node it visits as a
// fact — monotone, so fixpoints must terminate.
func nodeGen(n ast.Node, in Facts) Facts {
	in[n] = true
	return in
}

// TestSolveForwardLoopFacts: a fact generated in a loop body flows around
// the back edge and out of the loop.
func TestSolveForwardLoopFacts(t *testing.T) {
	body := parseBody(t, `for k := range m { a(k) }; d()`)
	cfg := BuildCFG(body)
	in := SolveForward(cfg, Facts{}, nodeGen)

	var bodyCall ast.Node
	for _, b := range cfg.Blocks {
		if b.Kind == "range.body" {
			bodyCall = b.Nodes[0]
		}
	}
	if bodyCall == nil {
		t.Fatal("no range.body block")
	}
	for _, b := range cfg.Blocks {
		if b.Kind == "range.join" && !in[b][bodyCall] {
			t.Error("loop-body fact did not flow to the join block")
		}
		if b.Kind == "range.head" && !in[b][bodyCall] {
			t.Error("loop-body fact did not flow around the back edge")
		}
	}
}

// TestSolveForwardKillRegen: facts killed on one branch survive through
// the union join — the may-analysis contract.
func TestSolveForwardKillRegen(t *testing.T) {
	body := parseBody(t, `gen(); if c { kill() }; after()`)
	cfg := BuildCFG(body)
	var genStmt, killStmt ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok {
			call := es.X.(*ast.CallExpr)
			switch call.Fun.(*ast.Ident).Name {
			case "gen":
				genStmt = es
			case "kill":
				killStmt = es
			}
		}
		return true
	})
	transfer := func(n ast.Node, in Facts) Facts {
		switch n {
		case genStmt:
			in["fact"] = true
		case killStmt:
			delete(in, "fact")
		}
		return in
	}
	in := SolveForward(cfg, Facts{}, transfer)
	for _, b := range cfg.Blocks {
		if b.Kind == "if.join" && !in[b]["fact"] {
			t.Error("fact killed on one branch must survive the union join (may-analysis)")
		}
		if b.Kind == "if.then" && !in[b]["fact"] {
			t.Error("fact must be live entering the branch that kills it")
		}
	}
}

// TestFactsAtReplay: FactsAt returns the dataflow state immediately
// before the queried node, replaying earlier same-block transfers.
func TestFactsAtReplay(t *testing.T) {
	body := parseBody(t, `a(); b(); c()`)
	cfg := BuildCFG(body)
	entry := cfg.Blocks[0]
	if len(entry.Nodes) != 3 {
		t.Fatalf("entry block has %d nodes, want 3", len(entry.Nodes))
	}
	in := SolveForward(cfg, Facts{}, nodeGen)
	facts := FactsAt(cfg, in, entry.Nodes[1], nodeGen)
	if !facts[entry.Nodes[0]] {
		t.Error("fact from the preceding node is missing")
	}
	if facts[entry.Nodes[1]] || facts[entry.Nodes[2]] {
		t.Error("FactsAt must not include the queried node or later ones")
	}
}

// TestSolveForwardPathologicalNesting: the fixpoint must terminate on
// deeply nested control flow well inside maxFixpointRounds. 60 levels of
// alternating loops and branches is far past anything in the tree.
func TestSolveForwardPathologicalNesting(t *testing.T) {
	var b strings.Builder
	const depth = 60
	for i := 0; i < depth; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "for i%d := 0; i%d < n; i%d++ { g%d(); ", i, i, i, i)
		} else {
			fmt.Fprintf(&b, "if c%d { g%d() } else { ", i, i)
		}
	}
	b.WriteString("core()")
	for i := depth - 1; i >= 0; i-- {
		b.WriteString(" }")
	}
	body := parseBody(t, b.String())
	cfg := BuildCFG(body)

	var coreStmt ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "core" {
					coreStmt = es
				}
			}
		}
		return true
	})
	if coreStmt == nil {
		t.Fatal("generated body lacks the innermost call")
	}
	in := SolveForward(cfg, Facts{}, nodeGen) // panics on non-convergence
	if facts := FactsAt(cfg, in, coreStmt, nodeGen); len(facts) == 0 {
		t.Error("no facts reached the innermost statement")
	}
	if !in[cfg.Exit].equal(in[cfg.Exit]) {
		t.Error("Facts.equal is not reflexive") // also exercises the helper
	}
}
