package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxabort guards the preemption contract: a million-instruction simulation
// must be cancellable mid-flight, so run loops and grid fan-outs have to
// thread a context.Context and actually poll it.
//
// Three checks:
//
//  1. Module-wide: a context.Context parameter that the function body never
//     references is a dropped cancellation path.
//
//  2. In the run-loop packages (sim, ooosim, refsim, sweep, engine): a loop
//     that performs simulation work — calls a step/Step/Run function or
//     invokes a function value — inside a function that has a context in
//     scope (directly or through an opts struct) must reference that context
//     in the loop, or cancellation silently waits for the loop to finish.
//
//  3. A package declaring a Machine type with a Run method must offer at
//     least one context-threading entry point (the RunCheckpointed shape),
//     so new machine models cannot land without the preemption contract.
var Ctxabort = &Analyzer{
	Name: "ctxabort",
	Doc: "simulator run loops and sweep/grid fan-outs must thread a " +
		"context.Context and contain an abort check",
	Run: runCtxabort,
}

// runLoopPackages are the packages whose loops do the expensive work.
var runLoopPackages = []string{"sim", "ooosim", "refsim", "sweep", "engine"}

func isRunLoopPackage(path string) bool {
	for _, name := range runLoopPackages {
		if strings.HasSuffix(path, "internal/"+name) {
			return true
		}
	}
	return false
}

func runCtxabort(pass *Pass) {
	info := pass.Pkg.Info
	inScope := isRunLoopPackage(pass.Pkg.Path)

	hasMachineRun := false
	hasCtxEntry := false

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUnusedCtx(pass, fd)
			if ctxBearing(info, fd.Type) {
				hasCtxEntry = true
			}
			if named := receiverNamed(pass.Pkg, fd); named != nil &&
				named.Obj().Name() == "Machine" && fd.Name.Name == "Run" {
				hasMachineRun = true
			}
			if inScope && ctxBearing(info, fd.Type) {
				checkLoops(pass, fd)
			}
		}
	}

	if hasMachineRun && !hasCtxEntry {
		// Report on the package's Machine type.
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Machine" {
					return true
				}
				pass.Reportf(ts.Pos(), "machine model %s.Machine has Run but no cancellable entry point: add a RunCheckpointed-style API threading context.Context so the job layer can preempt it", lastSegment(pass.Pkg.Path))
				return false
			})
		}
	}
}

// checkUnusedCtx reports context.Context parameters the body never reads.
func checkUnusedCtx(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					used = true
					return false
				}
				return !used
			})
			if !used {
				pass.Reportf(name.Pos(), "context parameter %s is never used: thread it to the work this function starts, or it can never be aborted", name.Name)
			}
		}
	}
}

// ctxBearing reports whether the function signature gives the body access
// to a context: a direct context.Context parameter, or a parameter whose
// struct type carries a context.Context field (RunOpts.Ctx, sweep.Opts.Ctx).
func ctxBearing(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isContextType(t) || structHasContextField(t) {
			return true
		}
	}
	return false
}

// checkLoops reports work loops that never consult the context available to
// their function.
func checkLoops(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	var inspectLoop func(body *ast.BlockStmt, loopPos ast.Node)
	seen := make(map[ast.Node]bool)
	inspectLoop = func(body *ast.BlockStmt, loop ast.Node) {
		if seen[loop] {
			return
		}
		seen[loop] = true
		if !loopDoesWork(info, body) {
			return
		}
		if referencesContext(info, body) {
			return
		}
		pass.Reportf(loop.Pos(), "this loop runs simulation work but never checks the context available to %s: poll ctx.Err() (or pass the context down) so the loop can be aborted", fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			inspectLoop(n.Body, n)
		case *ast.RangeStmt:
			inspectLoop(n.Body, n)
		}
		return true
	})
}

// loopDoesWork reports whether the loop body performs simulation-scale work:
// a call to a step/Step/Run/RunCheckpointed function or method defined in a
// run-loop package (sim.Model's Step included), or a call through a
// function value (the engine's task fn).
func loopDoesWork(info *types.Info, body *ast.BlockStmt) bool {
	work := false
	ast.Inspect(body, func(n ast.Node) bool {
		if work {
			return false
		}
		// A `go worker()` spawn loop finishes immediately; the goroutine
		// it starts is responsible for its own abort checks.
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch obj := callee(info, call).(type) {
		case *types.Func:
			name := obj.Name()
			if (name == "step" || name == "Step" || name == "Run" || name == "RunCheckpointed") &&
				obj.Pkg() != nil && isRunLoopPackage(obj.Pkg().Path()) {
				work = true
			}
		case *types.Var:
			// A call through a function-typed variable or parameter: the
			// engine cannot know how long fn runs, so it must stay
			// abortable between iterations.
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				work = true
			}
		}
		return true
	})
	return work
}

// referencesContext reports whether any expression in the loop body has
// type context.Context (polling ctx.Err(), select on ctx.Done(), passing
// opts.Ctx onward all qualify).
func referencesContext(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t := info.TypeOf(expr); t != nil && isContextType(t) {
			found = true
			return false
		}
		return true
	})
	return found
}
