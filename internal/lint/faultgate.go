package lint

import (
	"strconv"
	"strings"
)

// faultgateAllowed are the import-path suffixes of the packages that may
// import internal/faultinject from non-test code. They are exactly the
// fabric choke points where faults are *implemented* (the simulated
// fabric, the SCIF transport, the Snapify-IO daemons, the COI control
// plane), the harnesses that *drive* fault plans (experiments, the
// snapbench CLI), and faultinject itself.
var faultgateAllowed = []string{
	"internal/faultinject",
	"internal/simnet",
	"internal/scif",
	"internal/snapifyio",
	"internal/coi",
	"internal/snapstore",
	"internal/experiments",
	"cmd/snapbench",
}

// Faultgate reports non-test imports of internal/faultinject outside the
// list above. The failure model (DESIGN.md §10) keeps fault hooks at
// the fabric choke points only: blcr retries, the core API, and the
// platform recover from *failed operations*, never by asking the injector
// what went wrong — if they could peek at the plan, recovery code would
// quietly specialize to injected faults instead of real ones. Tests are
// exempt (the loader never reads _test.go files): they are where plans
// are armed.
var Faultgate = &Analyzer{
	Name: "faultgate",
	Doc:  "internal/faultinject is imported only by the fabric choke points (simnet, scif, snapifyio, coi), the fault-plan harnesses (experiments, cmd/snapbench), and tests",
	Run:  runFaultgate,
}

func runFaultgate(p *Pass) {
	if faultgatePathAllowed(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if pathHasSuffix(path, "internal/faultinject") {
				p.Reportf(imp.Pos(), "package %s imports %s but is not a fault-injection choke point; recovery code must handle failures without consulting the injector (DESIGN.md §10)", p.Pkg.Path, path)
			}
		}
	}
}

func faultgatePathAllowed(pkgPath string) bool {
	for _, suffix := range faultgateAllowed {
		if pathHasSuffix(pkgPath, suffix) {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether path ends with the import-path suffix at
// a path-element boundary ("x/internal/scif" matches "internal/scif";
// "x/notinternal/scif" does not).
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}
