// Command doclint enforces the repository's godoc contract: every exported
// identifier in the named package directories must carry a doc comment, and
// every package must have a package comment. TestTargetPackagesDocumented
// holds the repository's target packages to it under `go test`, the gate CI
// runs; by hand it checks any package directories:
//
//	go run ./internal/tools/doclint ./internal/core ./internal/vm
//
// The rules mirror the classic golint/staticcheck ST1000+ST1020..ST1022
// presence checks (a comment on a const/var/type group covers its specs;
// methods of exported types count; test files are skipped), with no network
// or external tooling required.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	var findings []string
	for _, dir := range dirs {
		fs, err := LintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported identifiers\n", len(findings))
		os.Exit(1)
	}
}

// LintDir parses one package directory (tests excluded) and returns a
// finding per undocumented exported identifier, each formatted as
// "path:line: message".
func LintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	add := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		pkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				pkgDoc = true
			}
		}
		if !pkgDoc {
			for _, f := range pkg.Files {
				add(f.Package, "package %s has no package comment", name)
				break
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				lintDecl(decl, add)
			}
		}
	}
	return findings, nil
}

// lintDecl reports undocumented exported identifiers of one declaration.
func lintDecl(decl ast.Decl, add func(token.Pos, string, ...any)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return
		}
		if recv := receiverName(d); recv != "" {
			if !ast.IsExported(recv) {
				return // method of an unexported type: not API surface
			}
			add(d.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
			return
		}
		add(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					add(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
				}
			case *ast.ValueSpec:
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue // a comment on the group or the spec covers it
				}
				for _, n := range s.Names {
					if n.IsExported() {
						add(s.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), n.Name)
					}
				}
			}
		}
	}
}

// receiverName returns the base type name of a method receiver, or "" for a
// plain function.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
