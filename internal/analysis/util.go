package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPackages are the simulator packages where determinism is load-bearing:
// any wall-clock read, randomness, or goroutine spawn inside them can break
// byte-identical replay. Matched by import-path suffix so the analysistest
// trees (module "td") exercise the same policy.
var simPackages = []string{
	"sim", "ooosim", "refsim", "rename", "iq", "rob", "bpred",
	"vregfile", "sched", "funcsim", "mem", "metrics", "probe",
	// span rides along inside the simulation path (simulate and grid-point
	// spans), so the same discipline applies: its wall-clock reads are
	// observability metadata and every one carries an explicit waiver.
	"span",
}

// isSimPackage reports whether the import path names one of the simulator
// packages.
func isSimPackage(path string) bool {
	for _, name := range simPackages {
		if strings.HasSuffix(path, "internal/"+name) {
			return true
		}
	}
	return false
}

// lastSegment returns the final element of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// callee resolves the object a call expression invokes: a *types.Func for
// static function and method calls, a *types.Builtin for builtins, a
// *types.Var for calls through function values, or nil for type
// conversions and calls of function literals.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// funcFrom reports whether obj is the named function of the named package
// (matched on the package's full path).
func funcFrom(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isInterfaceType reports whether t is an interface type (including any).
func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// structHasContextField reports whether t (after stripping pointers) is a
// struct with a context.Context field, like ooosim.RunOpts or sweep.Opts.
func structHasContextField(t types.Type) bool {
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// receiverNamed returns the named type of a method declaration's receiver,
// stripping any pointer, or nil for plain functions.
func receiverNamed(pkg *Package, decl *ast.FuncDecl) *types.Named {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return nil
	}
	t := pkg.Info.TypeOf(decl.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
