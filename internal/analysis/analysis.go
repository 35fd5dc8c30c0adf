// Package analysis is a self-contained static-analysis framework
// modelled on golang.org/x/tools/go/analysis, built only on the
// standard library's go/ast, go/types and the go command (this module
// vendors no third-party code). It exists to enforce the repo's
// load-bearing simulator invariants at "compile time" — the analyzers
// in the sibling packages (allocfree, determinism, canonicalspec)
// encode rules that PR 5 established but previously guarded only at
// runtime via allocation budgets and golden outputs.
//
// The API mirrors go/analysis deliberately: an Analyzer holds a name,
// a doc string and a Run function; Run receives a Pass with the
// package's syntax, type information and a Report callback. Should the
// real golang.org/x/tools dependency ever become available, the
// analyzers port over by changing one import line.
//
// Packages are loaded from source: `go list -json -deps` supplies the
// file sets and import graph (build tags and vendoring already
// resolved), and go/types checks every package — including standard
// library dependencies — from source in dependency order. See Loader.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Doc is the help text: first line is a one-line summary.
	Doc string
	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report; the returned error aborts the whole run (reserved for
	// analyzer bugs, not findings).
	Run func(*Pass) error
}

// Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report delivers one diagnostic.
	Report func(Diagnostic)

	lines map[*token.File]lineComments
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// lineComments maps a line number to the comment text present on it.
type lineComments map[int]string

// CommentOn returns the comment text on the given line of pos's file
// ("" when none). Analyzers use it for suppression markers such as
// //determinism:unordered: a marker counts when it sits on the flagged line or on
// the line directly above it (use MarkerAt for that convention).
func (p *Pass) CommentOn(pos token.Pos, line int) string {
	tf := p.Fset.File(pos)
	if tf == nil {
		return ""
	}
	if p.lines == nil {
		p.lines = make(map[*token.File]lineComments)
	}
	lc, ok := p.lines[tf]
	if !ok {
		lc = make(lineComments)
		for _, f := range p.Files {
			if p.Fset.File(f.Pos()) != tf {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					l := p.Fset.Position(c.Pos()).Line
					lc[l] += c.Text
				}
			}
		}
		p.lines[tf] = lc
	}
	return lc[line]
}

// MarkerAt reports whether marker (e.g. "//determinism:unordered") appears on
// pos's line or the line immediately above — the two placements the
// suppression convention accepts.
func (p *Pass) MarkerAt(pos token.Pos, marker string) bool {
	line := p.Fset.Position(pos).Line
	return containsMarker(p.CommentOn(pos, line), marker) ||
		containsMarker(p.CommentOn(pos, line-1), marker)
}

func containsMarker(comment, marker string) bool {
	for i := 0; i+len(marker) <= len(comment); i++ {
		if comment[i:i+len(marker)] == marker {
			return true
		}
	}
	return false
}
