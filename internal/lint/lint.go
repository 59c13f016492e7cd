// Package lint is a stdlib-only static-analysis framework for the Snapify
// codebase. It exists because the snapshot protocol's correctness claims
// rest on coding rules — every channel drained before capture, no silently
// dropped errors on the pause/capture/resume paths, no wall-clock time
// leaking into the simulated cost model — that ordinary `go vet` cannot
// express. Each Analyzer encodes one such invariant; the cmd/snapifylint
// driver runs them over the tree and gates the tier-1 verify script.
//
// The framework is built only on go/parser, go/ast, and go/types (the
// module is dependency-free by design), with its own package loader in
// load.go.
//
// # Suppressing a finding
//
// There is one way to suppress a finding, and it must say why: an inline
// directive on the offending line, `//nolint:<analyzer> // <justification>`.
// A bare `//nolint:<analyzer>` with no justification does NOT suppress —
// the finding is reported with a note asking for one. A directive is
// itself reported when it names no registered analyzer or suppresses
// nothing on its line, so a suppression cannot outlive the code or the
// analyzer it was written for.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// An Analyzer checks one Snapify coding invariant over a type-checked
// package.
type Analyzer struct {
	// Name is the short identifier used in reports and //nolint
	// directives.
	Name string
	// Doc is a one-line statement of the invariant the analyzer protects.
	Doc string
	// Run inspects the pass's package and reports findings through it.
	Run func(*Pass)
}

// All returns every registered analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		UncheckedErr,
		Wallclock,
		PanicLib,
		RawPrint,
		Faultgate,
		Storegate,
		MapOrder,
		CloseLeak,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Finding is one reported violation.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// A Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Prog is the whole-program view (call graph, CFG cache), shared by
	// every pass of one lint.Run.
	Prog *Program

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, newFinding(p.Analyzer.Name, p.Pkg.Fset.Position(pos), fmt.Sprintf(format, args...)))
}

func newFinding(analyzer string, pos token.Position, msg string) Finding {
	return Finding{Analyzer: analyzer, Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg}
}

// Run applies the analyzers to the packages and returns the surviving
// findings, sorted by position. Findings on lines carrying a justified
// //nolint:<analyzer> directive are dropped; directives without a
// justification leave the finding in place with a note appended. Stale
// directives are findings of their own (see directiveSet.stale).
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunStats(pkgs, analyzers)
	return findings
}

// directiveCheck is the Analyzer field of a finding about a //nolint
// directive itself. It is a rule of the run, not a registered analyzer:
// it cannot be selected or suppressed.
const directiveCheck = "nolint"

// An AnalyzerStat summarizes one analyzer's work in a RunStats call.
type AnalyzerStat struct {
	Analyzer string        `json:"analyzer"`
	Findings int           `json:"findings"` // surviving findings (after //nolint)
	Wall     time.Duration `json:"wall_ns"`  // wall-clock spent in the analyzer's Run calls
}

// RunStats is Run plus per-analyzer counts and wall-clock timings (the
// driver's -stats view; lint-time regressions should be visible, not
// archaeological). The last stat is the directive check's.
func RunStats(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []AnalyzerStat) {
	prog := BuildProgram(pkgs)
	directives := directiveSet{}
	for _, pkg := range pkgs {
		collectDirectives(pkg, directives)
	}
	var out []Finding
	stats := make([]AnalyzerStat, len(analyzers)+1)
	timed := func(stat *AnalyzerStat, run func() []Finding) {
		start := time.Now() //nolint:wallclock // lint tooling self-measurement, not simulated time
		found := run()
		stat.Wall = time.Since(start) //nolint:wallclock // lint tooling self-measurement, not simulated time
		stat.Findings = len(found)
		out = append(out, found...)
	}
	for i, a := range analyzers {
		stats[i].Analyzer = a.Name
		timed(&stats[i], func() (kept []Finding) {
			for _, pkg := range pkgs {
				pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog}
				a.Run(pass)
				for _, f := range pass.findings {
					switch directives.lookup(f.File, f.Line, a.Name) {
					case suppressJustified:
						continue // acknowledged with a reason: drop
					case suppressBare:
						f.Message += " (a //nolint directive suppresses only with a justification: //nolint:" + a.Name + " // why)"
					}
					kept = append(kept, f)
				}
			}
			return kept
		})
	}
	stats[len(analyzers)].Analyzer = directiveCheck
	timed(&stats[len(analyzers)], func() []Finding { return directives.stale(analyzers) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, stats
}

// --- //nolint directives ---

type suppression int

const (
	suppressNone suppression = iota
	suppressBare
	suppressJustified
)

// A directive is one analyzer name of one //nolint comment.
type directive struct {
	pos       token.Position
	justified bool
	// used is set once the directive has met a finding on its line.
	used bool
}

type directiveKey struct {
	file string
	line int
	name string
}

// directiveSet holds every //nolint directive of a run, by file, line
// and analyzer name.
type directiveSet map[directiveKey]*directive

func (d directiveSet) lookup(file string, line int, analyzer string) suppression {
	dir := d[directiveKey{file, line, analyzer}]
	if dir == nil {
		return suppressNone
	}
	dir.used = true // a bare directive's amended finding points at it
	if !dir.justified {
		return suppressBare
	}
	return suppressJustified
}

// stale reports the directives that name no registered analyzer, and
// those naming an analyzer of this run that found nothing on their line.
// A directive for a registered analyzer that did not run is not judged.
func (d directiveSet) stale(ran []*Analyzer) []Finding {
	judged := map[string]bool{}
	for _, a := range ran {
		judged[a.Name] = true
	}
	var out []Finding
	for key, dir := range d {
		switch {
		case ByName(key.name) == nil:
			out = append(out, newFinding(directiveCheck, dir.pos,
				"//nolint:"+key.name+" names no registered analyzer (see snapifylint -list): delete it or fix the name"))
		case judged[key.name] && !dir.used:
			out = append(out, newFinding(directiveCheck, dir.pos,
				"//nolint:"+key.name+" suppresses nothing on this line: delete it"))
		}
	}
	return out
}

// collectDirectives scans every comment in the package for //nolint
// directives, adding them to set. A directive applies to the line it sits
// on (the usual trailing-comment placement).
func collectDirectives(pkg *Package, set directiveSet) {
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				names, justified, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, n := range names {
					key := directiveKey{pos.Filename, pos.Line, n}
					if dir := set[key]; dir != nil {
						// A justified directive wins over a bare duplicate.
						dir.justified = dir.justified || justified
						continue
					}
					set[key] = &directive{pos: pos, justified: justified}
				}
			}
		}
	}
}

// parseDirective parses one comment for a //nolint:a,b directive,
// returning the analyzer names and whether a justification follows
// (either `//nolint:x // reason` or `//nolint:x -- reason`).
func parseDirective(text string) (names []string, justified bool, ok bool) {
	body, isLine := strings.CutPrefix(text, "//")
	if !isLine {
		return nil, false, false // block comments are not directives
	}
	rest, isDirective := strings.CutPrefix(strings.TrimLeft(body, " \t"), "nolint:")
	if !isDirective {
		return nil, false, false
	}
	nameList, reason, _ := strings.Cut(rest, " ")
	for _, n := range strings.Split(nameList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, false, false
	}
	reason = strings.TrimLeft(reason, " \t/-")
	return names, strings.TrimSpace(reason) != "", true
}

// inspectFiles runs fn over every node of every file in the pass's
// package.
func inspectFiles(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
