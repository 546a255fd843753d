// Package doccheck is the doc-presence gate shared by the packages whose
// every exported identifier must carry a doc comment: internal/coverage and
// internal/telemetry (the extension points new instrumentation and campaign
// metrics land in) and internal/serve (whose exported surface doubles as
// the campaign service's wire-format documentation). Each of those packages
// runs Undocumented on itself from its TestExportedIdentifiersDocumented,
// which CI runs as its own step; go vet covers the rest of the tree.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
)

// Undocumented parses the non-test Go files in dir and returns one
// "position: exported kind Name has no doc comment" line per exported
// func, type, const or var without a doc comment. A directory with no
// non-test Go file is an error, so a gate pointed at the wrong place
// cannot pass silently.
func Undocumented(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", dir, err)
	}
	var out []string
	files := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files++
			for _, decl := range f.Decls {
				out = appendUndocumented(out, fset, decl)
			}
		}
	}
	if files == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files to check", dir)
	}
	return out, nil
}

// appendUndocumented appends a finding for each exported name decl
// declares without a doc comment. A grouped const, var or type block is
// documented by the comment on the group, its spec, or the spec's line.
func appendUndocumented(out []string, fset *token.FileSet, decl ast.Decl) []string {
	missing := func(name *ast.Ident, kind string) {
		out = append(out, fmt.Sprintf("%s: exported %s %s has no doc comment", fset.Position(name.Pos()), kind, name.Name))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			missing(d.Name, "func")
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var names []*ast.Ident
			var doc, line *ast.CommentGroup
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names, doc, line = []*ast.Ident{s.Name}, s.Doc, s.Comment
			case *ast.ValueSpec:
				names, doc, line = s.Names, s.Doc, s.Comment
			}
			for _, name := range names {
				if name.IsExported() && d.Doc == nil && doc == nil && line == nil {
					missing(name, d.Tok.String())
				}
			}
		}
	}
	return out
}
