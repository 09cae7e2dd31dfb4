// Package lint machine-enforces the repository's reproducibility
// invariants: deterministic map iteration, injected clocks and seeded
// randomness, zero-allocation hot paths, and CRC-framed-only WAL writes.
//
// The analyzers mirror the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Reportf) but are built directly on go/ast and
// go/types so the module stays dependency-free. cmd/loom-lint is the
// multichecker driver; lint_repo_test.go runs the whole suite over the
// repository so `go test ./...` fails on a violation even before CI's
// dedicated lint step does.
//
// Annotations understood by the suite:
//
//	//loom:orderinvariant <reason>  — the map range on this or the next
//	                                  line is order-insensitive for a
//	                                  reason the heuristics cannot prove.
//	//loom:hotpath                  — this function is a measured
//	                                  zero-alloc hot path; hotalloc
//	                                  flags allocation-inducing
//	                                  constructs inside it.
//	//loom:allocok <reason>         — the construct on this or the next
//	                                  line allocates intentionally
//	                                  (e.g. a once-per-call error path
//	                                  the benchmark never takes).
//	//loom:framedwriter <reason>    — this function is a CRC-framing
//	                                  helper and may write raw bytes to
//	                                  checkpoint file handles.
//
// Suppression annotations (orderinvariant, allocok, framedwriter) must
// carry a justification; a bare annotation is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass)
}

// A Pass provides one analyzer run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags      *[]Diagnostic
	directives map[*ast.File]map[int][]Directive
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id (Defs first, then Uses).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// Run applies each analyzer to the package and returns the diagnostics
// sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
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

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, HotAlloc, FramedWrite}
}

// DeterministicPackages lists the import paths whose behaviour must be
// bit-identical for a given seed: the partitioning engine and everything
// the equivalence/golden fixtures replay through it. maporder and the
// strict mode of wallclock apply to exactly this set.
var DeterministicPackages = map[string]bool{
	"loom":                      true,
	"loom/internal/core":        true,
	"loom/internal/partition":   true,
	"loom/internal/pattern":     true,
	"loom/internal/graph":       true,
	"loom/internal/stream":      true,
	"loom/internal/motif":       true,
	"loom/internal/signature":   true,
	"loom/internal/metrics":     true,
	"loom/internal/checkpoint":  true,
	"loom/internal/fault":       true,
	"loom/internal/fault/chaos": true,
	"loom/internal/cluster":     true,
	"loom/internal/iso":         true,
	"loom/internal/ident":       true,
	"loom/internal/gen":         true,
	"loom/internal/query":       true,
	"loom/internal/store":       true,
	"loom/internal/qserve":      true,
	"loom/internal/serve/state": true,
}

// A Directive is one parsed //loom:<name> <reason> comment.
type Directive struct {
	Name   string // "orderinvariant", "hotpath", ...
	Reason string // text after the name, may be empty
	Pos    token.Pos
}

const directivePrefix = "//loom:"

// parseDirective parses one comment; ok is false for ordinary comments.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	rest := text[len(directivePrefix):]
	name, reason, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// fileDirectives indexes every directive in f by line number.
func (p *Pass) fileDirectives(f *ast.File) map[int][]Directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]Directive)
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := make(map[int][]Directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				line := p.Fset.Position(c.Pos()).Line
				m[line] = append(m[line], d)
			}
		}
	}
	p.directives[f] = m
	return m
}

// DirectiveAt looks for a //loom:<name> directive attached to node: on
// the node's first line or on the line immediately above it.
func (p *Pass) DirectiveAt(f *ast.File, node ast.Node, name string) (Directive, bool) {
	m := p.fileDirectives(f)
	line := p.Fset.Position(node.Pos()).Line
	for _, cand := range [...]int{line, line - 1} {
		for _, d := range m[cand] {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// FuncDirective looks for a //loom:<name> directive in the doc comment
// of a function declaration (or on the line above the func keyword).
func (p *Pass) FuncDirective(f *ast.File, fn *ast.FuncDecl, name string) (Directive, bool) {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if d, ok := parseDirective(c); ok && d.Name == name {
				return d, true
			}
		}
	}
	return p.DirectiveAt(f, fn, name)
}

// eachFuncWithFile visits every function declaration together with its
// enclosing file.
func (p *Pass) eachFuncWithFile(visit func(f *ast.File, fn *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				visit(f, fn)
			}
		}
	}
}

// isInteger reports whether t's underlying type is an integer kind —
// the accumulator types for which += / ++ are order-insensitive
// (floating-point addition is not associative, strings are ordered).
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isString reports whether t's underlying type is a string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// if any (package-level functions, methods; not builtins/conversions).
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// refersTo reports whether expr mentions obj.
func (p *Pass) refersTo(expr ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
