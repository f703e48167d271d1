package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Snapshotcomplete guards the checkpoint/resume byte-identity contract
// against its worst failure mode: a machine struct gains a field, the
// Snapshot/Restore pair is not updated, and checkpoints silently resume
// with stale state — wrong results with no error anywhere.
//
// For every type with a Snapshot/Restore method pair (exported or not),
// every field of the struct must either be read through the receiver inside
// the Snapshot method, carry an //ovlint:config annotation stating that it
// is configuration or per-call scratch rather than evolving machine state,
// or carry an //ovlint:derived annotation stating that it is recomputed
// from the captured state. A derived field must be assigned by Restore —
// in its body or in a method it calls on the same receiver — or a restored
// machine would keep the derived state of whatever ran before.
var Snapshotcomplete = &Analyzer{
	Name: "snapshotcomplete",
	Doc: "every field of a type with a Snapshot/Restore pair must be captured " +
		"by Snapshot, marked //ovlint:config, or marked //ovlint:derived and assigned by Restore",
	Run: runSnapshotcomplete,
}

func runSnapshotcomplete(pass *Pass) {
	info := pass.Pkg.Info

	// Group method declarations by receiver type.
	type pair struct {
		snapshot, restore *ast.FuncDecl
	}
	methods := make(map[*types.Func]*ast.FuncDecl)
	pairs := make(map[*types.Named]*pair)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			named := receiverNamed(pass.Pkg, fd)
			if named == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				methods[fn] = fd
			}
			p := pairs[named]
			if p == nil {
				p = &pair{}
				pairs[named] = p
			}
			switch strings.ToLower(fd.Name.Name) {
			case "snapshot":
				p.snapshot = fd
			case "restore":
				p.restore = fd
			}
		}
	}

	// Iterate the receiver types in declaration order: diagnostics are
	// sorted by position before reporting, but the analyzers hold
	// themselves to the determinism rule they enforce.
	var order []*types.Named
	for named := range pairs {
		order = append(order, named)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Obj().Pos() < order[j].Obj().Pos() })

	for _, named := range order {
		p := pairs[named]
		if p.snapshot == nil || p.restore == nil || p.snapshot.Body == nil {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		captured := capturedFields(info, p.snapshot)
		structAST := structASTFor(pass.Pkg, named.Obj().Name())
		if structAST == nil {
			continue
		}
		var restored map[*types.Var]bool
		for _, field := range structAST.Fields.List {
			if _, waived := fieldDirective(field, "config"); waived {
				continue
			}
			if d, ok := fieldDirective(field, "derived"); ok && d.reason != "" {
				if restored == nil {
					restored = assignedFields(info, methods, p.restore)
				}
				for _, name := range field.Names {
					if obj, ok := info.Defs[name].(*types.Var); ok && !restored[obj] {
						pass.Reportf(name.Pos(),
							"field %s.%s is marked //ovlint:derived but (%s).%s never assigns it: a restored checkpoint keeps the derived state of the previous run; rebuild it in %s",
							named.Obj().Name(), name.Name, named.Obj().Name(), p.restore.Name.Name, p.restore.Name.Name)
					}
				}
				continue
			}
			for _, name := range field.Names {
				obj, ok := info.Defs[name].(*types.Var)
				if !ok || captured[obj] {
					continue
				}
				pass.Reportf(name.Pos(),
					"field %s.%s is not captured by (%s).%s: a checkpoint restored without it resumes with stale state; capture it in the State struct, mark it //ovlint:config if it is configuration or scratch, or mark it //ovlint:derived if Restore recomputes it",
					named.Obj().Name(), name.Name, named.Obj().Name(), p.snapshot.Name.Name)
			}
		}
	}
}

// capturedFields collects every struct field object read through a selector
// inside the snapshot method's body (m.field, including range expressions
// and type switches over m.field).
func capturedFields(info *types.Info, snapshot *ast.FuncDecl) map[*types.Var]bool {
	captured := make(map[*types.Var]bool)
	ast.Inspect(snapshot.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				captured[v] = true
			}
		}
		return true
	})
	return captured
}

// assignedFields collects every struct field assigned through the receiver
// in the restore method's body — as the root of an assignment or inc/dec
// target, so w.f = x, w.f[i] = x and w.f++ all assign f — and, transitively,
// in the bodies of the same package's methods it calls on that receiver.
func assignedFields(info *types.Info, methods map[*types.Func]*ast.FuncDecl, restore *ast.FuncDecl) map[*types.Var]bool {
	assigned := make(map[*types.Var]bool)
	visited := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if visited[fd] || fd.Body == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
			return
		}
		visited[fd] = true
		recv := info.Defs[fd.Recv.List[0].Names[0]]
		target := func(e ast.Expr) {
			if v := receiverField(info, recv, e); v != nil {
				assigned[v] = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if id, ok := sel.X.(*ast.Ident); !ok || recv == nil || info.Uses[id] != recv {
					break
				}
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && methods[fn] != nil {
					visit(methods[fn])
				}
			}
			return true
		})
	}
	visit(restore)
	return assigned
}

// receiverField returns the field of recv at the root of an assignment
// target (recv.f, recv.f[i], recv.f.g, (*recv.f)...), or nil.
func receiverField(info *types.Info, recv types.Object, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if recv == nil || info.Uses[id] != recv {
					return nil
				}
				if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
					v, _ := s.Obj().(*types.Var)
					return v
				}
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// structASTFor finds the struct type literal declared under the given type
// name in the package, so field annotations and positions are available.
func structASTFor(pkg *Package, name string) *ast.StructType {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}
