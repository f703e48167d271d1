// Package analysis is the project's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, diagnostics) built directly on go/parser and
// go/types, because the build environment vendors nothing.
//
// The analyzers in this package turn the repo's headline guarantees —
// byte-identical output for any worker count, warm-restart byte-identity,
// checkpoint/resume byte-identity, and the zero-alloc hot path — from
// dynamically-tested properties into compile-time diagnostics. cmd/ovlint
// is the command-line driver; the full suite runs clean over ./... as a
// tier-1 CI gate.
//
// # Annotation vocabulary
//
//	//ovlint:hotpath <why>      function (and all module code it statically
//	                            calls) must be allocation-free
//	//ovlint:coldpath <why>     prune this function from hot-path traversal
//	                            (per-run setup/teardown, amortised over the
//	                            whole trace)
//	//ovlint:config <why>       struct field is configuration or scratch,
//	                            not machine state: exempt from snapshot
//	                            completeness
//	//ovlint:derived <why>      struct field is recomputed from captured
//	                            state: exempt from snapshot completeness
//	                            only if the type's Restore assigns it
//	//ovlint:allow <name> <why> suppress diagnostics of analyzer <name> on
//	                            this line or the next
//
// Every directive requires a reason: a waiver that does not say why it is
// safe is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //ovlint:allow
	// waivers.
	Name string
	// Doc is the one-paragraph description cmd/ovlint -list prints.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass)
}

// A Diagnostic is one reported problem.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one (analyzer, package) unit of work. The whole Program is
// exposed because several analyzers (hotpath reachability, gobsafe type
// walks) follow references across package boundaries.
type Pass struct {
	*Program
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless an //ovlint:allow waiver for
// this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Program.allowed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Run applies the analyzers to every package in the program and returns the
// surviving diagnostics in file/line order, deduplicated (a hot-path
// function reachable from roots in two packages is reported once).
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	seen := make(map[string]bool)
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{
				Program:  prog,
				Analyzer: a,
				Pkg:      pkg,
				report: func(d Diagnostic) {
					key := d.String()
					if !seen[key] {
						seen[key] = true
						diags = append(diags, d)
					}
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// directive is one parsed //ovlint: comment.
type directive struct {
	kind   string // "hotpath", "coldpath", "config", "derived", "allow"
	arg    string // analyzer name for "allow"
	reason string
	pos    token.Pos
}

// parseDirective parses an //ovlint: comment line, returning ok=false for
// ordinary comments.
func parseDirective(text string, pos token.Pos) (directive, bool) {
	const prefix = "//ovlint:"
	if !strings.HasPrefix(text, prefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, prefix)
	kind := rest
	var tail string
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		kind, tail = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	d := directive{kind: kind, pos: pos}
	switch kind {
	case "allow":
		fields := strings.Fields(tail)
		if len(fields) > 0 {
			d.arg = fields[0]
			d.reason = strings.TrimSpace(strings.TrimPrefix(tail, fields[0]))
		}
	case "hotpath", "coldpath", "config", "derived":
		d.reason = tail
	default:
		return directive{}, false
	}
	return d, true
}

// collectDirectives indexes every //ovlint: directive of a file by line.
func collectDirectives(fset *token.FileSet, f *ast.File) map[int][]directive {
	byLine := make(map[int][]directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c.Text, c.Pos()); ok {
				line := fset.Position(c.Pos()).Line
				byLine[line] = append(byLine[line], d)
			}
		}
	}
	return byLine
}

// allowed reports whether an //ovlint:allow waiver for the analyzer covers
// the position: the waiver sits on the same line (trailing comment) or on
// the line directly above (comment-above-statement). A waiver with no
// reason does not count.
func (prog *Program) allowed(analyzer string, pos token.Position) bool {
	byLine := prog.directives[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.kind == "allow" && d.arg == analyzer && d.reason != "" {
				return true
			}
		}
	}
	return false
}

// funcDirective returns the directive of the given kind attached to a
// function declaration's doc comment, if any.
func (prog *Program) funcDirective(pkg *Package, decl *ast.FuncDecl, kind string) (directive, bool) {
	if decl.Doc == nil {
		return directive{}, false
	}
	for _, c := range decl.Doc.List {
		if d, ok := parseDirective(c.Text, c.Pos()); ok && d.kind == kind {
			return d, true
		}
	}
	return directive{}, false
}

// fieldDirective returns the directive of the given kind attached to a
// struct field (doc comment above or trailing line comment), if any.
func fieldDirective(field *ast.Field, kind string) (directive, bool) {
	for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d, ok := parseDirective(c.Text, c.Pos()); ok && d.kind == kind {
				return d, true
			}
		}
	}
	return directive{}, false
}
