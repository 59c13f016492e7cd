package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// moduleNamespace is the import-path prefix that marks a function as
// "ours": the analyzers scope several rules to module-defined callees so
// that conventional standard-library patterns (fmt.Println and friends)
// stay out of scope.
const moduleNamespace = "snapify"

// calleeFunc resolves the function or method a call invokes, or nil for
// conversions, builtins, and calls the checker could not resolve.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isModuleFunc reports whether f is defined in this module.
func isModuleFunc(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	return path == moduleNamespace || strings.HasPrefix(path, moduleNamespace+"/")
}

// funcDisplayName renders f for a finding message: pkg.Func for
// functions, Type.Method for methods.
func funcDisplayName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
		return f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

// errorResults returns the indexes of error-typed results in a call's
// result list (nil if the callee's signature is unknown).
func errorResults(info *types.Info, call *ast.CallExpr) []int {
	f := calleeFunc(info, call)
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorIface) }
