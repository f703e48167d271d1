package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath turns the bytes-per-op CI budgets into per-call-site diagnostics:
// a function annotated //ovlint:hotpath — the per-instruction simulator
// step, the per-cycle component methods — and every module function it
// statically calls must not allocate.
//
// Flagged constructs: make, new, function literals (closure allocation),
// taking the address of a composite literal, slice and map literals, append
// onto a freshly allocated slice, string concatenation, boxing a non-pointer
// value into an interface argument, go statements, and defer.
//
// Functions annotated //ovlint:coldpath are pruned from the traversal:
// per-run setup and result assembly (Begin, Finish, Reset) runs once
// per trace and is amortised over millions of instructions. Calls of
// generic functions and of methods of generic types resolve to their
// generic declaration. Calls through interfaces and function values are not
// resolved; annotate the concrete implementations (the vregfile port files,
// each model's Step) directly.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "functions marked //ovlint:hotpath, and all module code they statically " +
		"call, must be allocation-free",
	Run: runHotpath,
}

func runHotpath(pass *Pass) {
	// Roots are the hotpath-annotated declarations of this package; the
	// traversal then crosses package boundaries freely.
	type workItem struct {
		fn   *types.Func
		root string
	}
	var work []workItem
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := pass.funcDirective(pass.Pkg, fd, "hotpath"); !ok {
				continue
			}
			if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				work = append(work, workItem{fn: obj, root: obj.FullName()})
			}
		}
	}
	if len(work) == 0 {
		return
	}

	visited := make(map[*types.Func]bool)
	for len(work) > 0 {
		item := work[0]
		work = work[1:]
		if visited[item.fn] {
			continue
		}
		visited[item.fn] = true
		pkg, decl, ok := pass.Decl(item.fn)
		if !ok || decl.Body == nil {
			continue
		}
		if _, cold := pass.funcDirective(pkg, decl, "coldpath"); cold {
			continue
		}
		checkAllocFree(pass, pkg, decl, item.root)
		for _, next := range staticCallees(pkg, decl) {
			if !visited[next] {
				work = append(work, workItem{fn: next, root: item.root})
			}
		}
	}
}

// staticCallees returns the module functions a declaration statically
// calls, instantiated generic functions and methods mapped back to their
// generic declaration. Calls through interfaces and function values resolve
// to nothing.
func staticCallees(pkg *Package, decl *ast.FuncDecl) []*types.Func {
	var out []*types.Func
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := callee(pkg.Info, call).(*types.Func); ok {
			out = append(out, fn.Origin())
		}
		return true
	})
	return out
}

// checkAllocFree reports every allocating construct in the declaration.
func checkAllocFree(pass *Pass, pkg *Package, decl *ast.FuncDecl, root string) {
	info := pkg.Info
	name := decl.Name.Name
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in %s, reachable from //ovlint:hotpath root %s: hot-path code must be allocation-free (mark per-run setup //ovlint:coldpath, or waive with //ovlint:allow hotpath)", what, name, root)
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := callee(info, n)
			if b, ok := obj.(*types.Builtin); ok {
				switch b.Name() {
				case "make":
					report(n.Pos(), "make allocates")
				case "new":
					report(n.Pos(), "new allocates")
				case "append":
					if len(n.Args) > 0 && allocatesFreshSlice(info, n.Args[0]) {
						report(n.Pos(), "append onto a fresh slice allocates")
					}
				}
				return true
			}
			if isConversion(info, n) {
				if isInterfaceType(info.TypeOf(n.Fun)) && len(n.Args) == 1 &&
					boxes(info, n.Args[0], info.TypeOf(n.Fun)) {
					report(n.Pos(), "conversion to interface boxes its operand")
				}
				return true
			}
			if sig, ok := info.TypeOf(n.Fun).(*types.Signature); ok {
				checkBoxedArgs(info, n, sig, report)
			}
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates its closure")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal allocates")
					return false // the literal itself is part of this report
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.GoStmt:
			report(n.Pos(), "go statement spawns a goroutine")
		case *ast.DeferStmt:
			report(n.Pos(), "defer adds per-call overhead")
		}
		return true
	})
}

// allocatesFreshSlice reports whether expr is a freshly allocated slice —
// append([]T(nil), ...), append([]T{}, ...) — whose append must allocate.
func allocatesFreshSlice(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if isConversion(info, e) && len(e.Args) == 1 {
			if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
		}
	}
	return false
}

// checkBoxedArgs reports call arguments that box a concrete non-pointer
// value into an interface parameter (fmt-style variadic any included).
func checkBoxedArgs(info *types.Info, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string)) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	// An f(slice...) call forwards an existing slice: nothing boxes here.
	if call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			break
		}
		if boxes(info, arg, pt) {
			report(arg.Pos(), "argument boxes a value into interface "+pt.String()+", which allocates")
		}
	}
}

// boxes reports whether passing arg as a parameter of type param stores a
// concrete non-pointer value in an interface, which heap-allocates the
// value. Pointers (and nil) fit in the interface word directly.
func boxes(info *types.Info, arg ast.Expr, param types.Type) bool {
	if !isInterfaceType(param) {
		return false
	}
	at := info.TypeOf(arg)
	if at == nil || isInterfaceType(at) {
		return false
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}
