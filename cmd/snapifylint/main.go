// Command snapifylint runs the Snapify-specific static analyzers
// (internal/lint) over the module and reports protocol-invariant
// violations with file:line positions.
//
// Usage:
//
//	snapifylint [-json] [-stats] [-list] [patterns...]
//
// Patterns are package directories relative to the module root, with the
// usual /... suffix for subtrees (default ./...). The exit status is 0
// when no findings survive, 1 when findings remain, and 2 on usage or
// load errors.
//
// -stats appends a per-analyzer finding-count and wall-clock summary.
// The only way to suppress a finding is an inline //nolint directive with
// a written justification; a directive that suppresses nothing is itself
// a finding (see internal/lint).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"snapify/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("snapifylint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	asJSON := flags.Bool("json", false, "emit findings as a JSON array (stable across runs, for CI diffing)")
	stats := flags.Bool("stats", false, "print a per-analyzer finding-count and wall-clock summary")
	list := flags.Bool("list", false, "list the analyzers and the invariant each protects, then exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "snapifylint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "snapifylint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "snapifylint:", err)
		return 2
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "snapifylint:", err)
		return 2
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "snapifylint: type error (analysis degrades): %v\n", terr)
		}
	}

	findings, perAnalyzer := lint.RunStats(pkgs, lint.All())

	// Findings print with module-root-relative paths so output (and the
	// -json stream CI diffs across PRs) is stable across checkouts.
	for i := range findings {
		if rel, relErr := filepath.Rel(root, findings[i].File); relErr == nil {
			findings[i].File = filepath.ToSlash(rel)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "snapifylint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if *stats {
		printStats(stdout, perAnalyzer)
	}
	if len(findings) > 0 {
		if !*asJSON {
			fmt.Fprintf(stdout, "snapifylint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// printStats renders the per-analyzer summary: surviving finding counts
// and the wall-clock each analyzer spent, then a total line.
func printStats(w io.Writer, perAnalyzer []lint.AnalyzerStat) {
	var findings int
	var wall time.Duration
	for _, s := range perAnalyzer {
		fmt.Fprintf(w, "stats: %-14s findings=%-3d wall=%s\n",
			s.Analyzer, s.Findings, s.Wall.Round(time.Microsecond))
		findings += s.Findings
		wall += s.Wall
	}
	fmt.Fprintf(w, "stats: %-14s findings=%-3d wall=%s\n",
		"total", findings, wall.Round(time.Microsecond))
}
