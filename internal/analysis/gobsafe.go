package analysis

import (
	"go/ast"
	"go/types"
)

// Gobsafe audits every struct that crosses an encoding/gob boundary — the
// checkpoint Encode/Decode pairs, anything passed to gob.Register. gob silently drops unexported fields, so a
// checkpoint State struct with one lowercase field round-trips without
// error and resumes wrong; interface-typed fields panic at encode time
// unless every concrete type is registered, which no compiler checks.
//
// The walk recurses through module-defined named types, slices, arrays,
// maps, and pointers. Types providing their own encoding (GobEncode,
// MarshalBinary) are trusted. Foreign (stdlib) types are skipped. A payload
// whose static type is an interface or a type parameter — a shared
// Encode(v any) helper — is itself a diagnostic: it hides the concrete
// struct from the walk, so gob calls must stay typed on the value encoded.
var Gobsafe = &Analyzer{
	Name: "gobsafe",
	Doc: "structs reaching gob.Encode/Decode/Register must have no unexported " +
		"(silently dropped) fields and no interface-typed fields",
	Run: runGobsafe,
}

func runGobsafe(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, ok := gobPayloadArg(info, call)
			if !ok {
				return true
			}
			t := info.TypeOf(arg)
			if t == nil {
				return true
			}
			if hidesPayload(t) {
				pass.Reportf(arg.Pos(), "gob payload of type %s hides the concrete type from this audit: call gob on the concrete (pointer to) struct so its fields are checked", t)
				return true
			}
			w := &gobWalker{pass: pass, visited: make(map[types.Type]bool)}
			w.check(t)
			return true
		})
	}
}

// gobPayloadArg returns the expression whose type flows into gob, if the
// call is one of the gob entry points.
func gobPayloadArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	obj := callee(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/gob" {
		return nil, false
	}
	switch fn.Name() {
	case "Register":
		if len(call.Args) == 1 {
			return call.Args[0], true
		}
	case "RegisterName":
		if len(call.Args) == 2 {
			return call.Args[1], true
		}
	case "Encode", "Decode", "EncodeValue", "DecodeValue":
		// Methods of *gob.Encoder / *gob.Decoder.
		if fn.Signature().Recv() != nil && len(call.Args) == 1 {
			return call.Args[0], true
		}
	}
	return nil, false
}

// hidesPayload reports whether a gob payload's static type (through
// pointers) is an interface or a type parameter — whose underlying type is
// its constraint interface — so no static walk can see its fields.
func hidesPayload(t types.Type) bool {
	for ptr, ok := t.(*types.Pointer); ok; ptr, ok = t.(*types.Pointer) {
		t = ptr.Elem()
	}
	return isInterfaceType(t)
}

type gobWalker struct {
	pass    *Pass
	visited map[types.Type]bool
}

// check validates t and everything reachable from it.
func (w *gobWalker) check(t types.Type) {
	if w.visited[t] {
		return
	}
	w.visited[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		w.check(u.Elem())
	case *types.Slice:
		w.check(u.Elem())
	case *types.Array:
		w.check(u.Elem())
	case *types.Map:
		w.check(u.Key())
		w.check(u.Elem())
	case *types.Struct:
		named, _ := t.(*types.Named)
		if named != nil {
			if !w.moduleType(named) || selfEncoding(named) {
				return
			}
		}
		name := t.String()
		if named != nil {
			name = named.Obj().Name()
		}
		for i := 0; i < u.NumFields(); i++ {
			field := u.Field(i)
			if !field.Exported() {
				w.pass.Reportf(field.Pos(),
					"unexported field %s.%s reaches encoding/gob: gob silently drops it, so a decoded value is quietly incomplete; export it or waive with //ovlint:allow gobsafe",
					name, field.Name())
				continue
			}
			if isInterfaceType(field.Type()) {
				w.pass.Reportf(field.Pos(),
					"interface-typed field %s.%s reaches encoding/gob: every concrete type stored in it must be gob.Register-ed or encoding fails at runtime; register them and waive with //ovlint:allow gobsafe",
					name, field.Name())
				continue
			}
			w.check(field.Type())
		}
	}
}

// moduleType reports whether the named type is declared in this module (the
// walk cannot see, and should not second-guess, stdlib internals).
func (w *gobWalker) moduleType(named *types.Named) bool {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	mod := w.pass.ModulePath
	return path == mod || len(path) > len(mod) && path[:len(mod)+1] == mod+"/"
}

// selfEncoding reports whether the type provides its own gob or binary
// encoding, making its field layout irrelevant.
func selfEncoding(named *types.Named) bool {
	for _, t := range []types.Type{named, types.NewPointer(named)} {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			switch ms.At(i).Obj().Name() {
			case "GobEncode", "GobDecode", "MarshalBinary", "UnmarshalBinary":
				return true
			}
		}
	}
	return false
}
