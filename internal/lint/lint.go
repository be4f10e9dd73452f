// Package lint is a stdlib-only static-analysis framework enforcing
// this repository's hardware datapath contract. The PL pipelines (HOG
// descriptor, block normalization, SVM dot product, DBN forward pass)
// are Q16.16 fixed-point datapaths with saturating arithmetic because
// the fabric has no FPU — but Go happily compiles raw `+` on
// fixed.Q, float64 in an RTL model, or an unseeded global RNG. The
// analyzers in this package turn those conventions into machine-checked
// invariants.
//
// Local (single-package, syntax + types) analyzers:
//
//   - fixedops: raw arithmetic operators on fixed.Q operands must be
//     the saturating Add/Sub/Mul/Div/Neg methods,
//   - nofloat: packages marked `// lint:datapath` may not use
//     float32/float64 or math.* outside `// lint:allowfloat` helpers,
//   - panicfree: library packages may not panic unless the site is
//     annotated `// lint:invariant <reason>`,
//   - seededrand: the global math/rand functions are forbidden in
//     favor of seeded *rand.Rand, keeping experiments reproducible.
//
// Dataflow-aware (interprocedural, built on the Program call graph of
// callgraph.go) analyzers:
//
//   - ctxflow: *Ctx functions take context.Context first, library code
//     never severs cancellation with context.Background/TODO, and
//     goroutine fan-out loops check their context,
//   - hotpathalloc: functions reachable from `// lint:hotpath` roots
//     (the HOG scan and its per-frame stack build, the block-response
//     kernels, the dark pipeline, the metrics record paths) stay free
//     of allocating constructs (un-pre-sized appends,
//     map/slice literals, unguarded make inside loops, fmt.*, boxing
//     into interface{}, closures capturing loop variables),
//   - goroutinelife: every `go` statement in a library package must be
//     joined (WaitGroup.Wait or a channel receive) in the spawning
//     function or a call-graph ancestor,
//   - detorder: detection/datapath packages may not range over maps or
//     select over multiple result channels — the static guarantee
//     behind byte-identical detections at any worker count,
//   - walltime: `// lint:simtime` packages may not read the wall clock
//     (time.Now/Since/Sleep/...); timing flows through simulated ps.
//
// Annotation syntax (ordinary line comments, scanned per file):
//
//	// lint:datapath            — package doc: opts the package into nofloat (and detorder)
//	// lint:detpath             — package doc: opts the package into detorder
//	// lint:simtime             — package doc: opts the package into walltime
//	// lint:allowfloat <why>    — func/decl doc: conversion or reporting helper
//	// lint:invariant <why>     — on or directly above a panic call site
//	// lint:hotpath             — func doc: roots the hotpathalloc reachability sweep
//	// lint:alloc <why>         — allocation site in a hot path; the reason is mandatory
//	// lint:ctxroot <why>       — sanctioned context.Background/TODO root
//	// lint:goroutine <why>     — goroutine whose lifetime is managed elsewhere
//	// lint:unordered <why>     — map iteration / select whose order provably cannot leak
//	// lint:walltime <why>      — sanctioned wall-clock read (metrics dual recording)
//
// The framework is deliberately small: an Analyzer is a named function
// over one typechecked Package, a Pass collects Diagnostics (and can
// consult the whole-program call graph through Pass.Prog), and the
// loader in load.go builds Packages from source with go/parser,
// go/types and go/importer alone (no x/tools), preserving the module's
// zero-dependency property.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// An Analyzer is one named check over a typechecked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Package is one typechecked package of the module, ready for
// analysis. Files includes _test.go files when the package was loaded
// with Config.Tests; TestFiles marks which they are.
type Package struct {
	// Path is the import path ("advdet/internal/fixed"); external test
	// packages carry a "_test" suffix ("advdet/internal/fixed_test").
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestFiles marks files whose name ends in _test.go.
	TestFiles map[*ast.File]bool

	// directives[filename][line] holds the lint:<name> directives of
	// each file, keyed by the comment's line.
	directives map[string]map[int]directive
}

// directive is one parsed lint:<name> <arg> annotation.
type directive struct {
	name string
	arg  string
}

// A Pass couples one Analyzer run with one Package and collects its
// diagnostics. Prog is the whole-program index shared by every pass of
// one RunAnalyzers invocation; dataflow-aware analyzers use it for
// call-graph reachability and fact exchange.
type Pass struct {
	*Package
	Analyzer *Analyzer
	Prog     *Program
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

func runOne(prog *Program, a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{Package: pkg, Analyzer: a, Prog: prog}
	a.Run(pass)
	sortDiags(pass.diags)
	return pass.diags
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined findings in file/line order. The call graph is built once
// over all packages, so interprocedural analyzers see cross-package
// edges.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(NewProgram(pkgs), analyzers)
}

// RunProgram is RunAnalyzers over a pre-built Program; callers that
// want the program afterwards (fact dumps, call-graph queries) build
// it themselves and use this entry point.
func RunProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			out = append(out, runOne(prog, a, pkg)...)
		}
	}
	sortDiags(out)
	return out
}

func sortDiags(d []Diagnostic) {
	sort.Slice(d, func(i, j int) bool {
		if d[i].File != d[j].File {
			return d[i].File < d[j].File
		}
		if d[i].Line != d[j].Line {
			return d[i].Line < d[j].Line
		}
		if d[i].Col != d[j].Col {
			return d[i].Col < d[j].Col
		}
		return d[i].Analyzer < d[j].Analyzer
	})
}

// All returns the full analyzer suite in a stable order: the four
// local contract analyzers of PR 1 followed by the five dataflow-aware
// analyzers built on the call graph.
func All() []*Analyzer {
	return []*Analyzer{
		FixedOps(), NoFloat(), PanicFree(), SeededRand(),
		CtxFlow(), DetOrder(), GoroutineLife(), HotPathAlloc(), WallTime(),
	}
}

// ByName resolves a comma-separated analyzer list ("all" or names from
// All) to analyzer instances.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" || list == "all" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// directivePrefix introduces an annotation inside a line comment.
const directivePrefix = "lint:"

// scanDirectives indexes every lint:<name> annotation of f by line.
func (p *Package) scanDirectives(f *ast.File) {
	if p.directives == nil {
		p.directives = map[string]map[int]directive{}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			name, arg, _ := strings.Cut(strings.TrimPrefix(text, directivePrefix), " ")
			pos := p.Fset.Position(c.Pos())
			m := p.directives[pos.Filename]
			if m == nil {
				m = map[int]directive{}
				p.directives[pos.Filename] = m
			}
			m[pos.Line] = directive{name: name, arg: strings.TrimSpace(arg)}
		}
	}
}

// DirectiveAt reports whether a lint:<name> annotation sits on the
// same line as pos or on the line directly above it.
func (p *Package) DirectiveAt(pos token.Pos, name string) bool {
	_, ok := p.directiveAt(pos, name)
	return ok
}

// DirectiveArgAt returns the argument text of a lint:<name> annotation
// on pos's line or the line directly above it ("" when the annotation
// carries no reason), and whether the annotation is present at all.
func (p *Package) DirectiveArgAt(pos token.Pos, name string) (string, bool) {
	return p.directiveAt(pos, name)
}

func (p *Package) directiveAt(pos token.Pos, name string) (string, bool) {
	position := p.Fset.Position(pos)
	m := p.directives[position.Filename]
	if d, ok := m[position.Line]; ok && d.name == name {
		return d.arg, true
	}
	if d, ok := m[position.Line-1]; ok && d.name == name {
		return d.arg, true
	}
	return "", false
}

// DocHasDirective reports whether a doc comment carries lint:<name>.
func DocHasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, directivePrefix+name) {
			return true
		}
	}
	return false
}

// IsDatapath reports whether any file's package doc opts the package
// into the nofloat contract with lint:datapath.
func (p *Package) IsDatapath() bool { return p.HasPackageDirective("datapath") }

// HasPackageDirective reports whether any file's package doc carries
// lint:<name> — the opt-in mechanism for package-scoped contracts
// (datapath, detpath, simtime).
func (p *Package) HasPackageDirective(name string) bool {
	for _, f := range p.Files {
		if DocHasDirective(f.Doc, name) {
			return true
		}
	}
	return false
}

// IsTestPackage reports whether p is an external _test package.
func (p *Package) IsTestPackage() bool { return strings.HasSuffix(p.Path, "_test") }

// IsCommand reports whether p is a main package (cmd/, examples/).
func (p *Package) IsCommand() bool { return p.Types != nil && p.Types.Name() == "main" }
