// Package doccheck keeps the documentation honest mechanically: a relative
// markdown link checker (every `[text](path)` in the repo's documentation
// must point at a file that exists), a wire-spec coverage check (every
// `Msg*` frame constant declared in internal/transport/message.go must be
// specified in docs/WIRE.md), a declaration check (every backticked
// `pkg.Name` or `pkg.Type.Name` naming a repository package must name a
// declaration in it) and a knob-table check (README's `core.Config` table
// lists exactly the struct's exported fields). All run under `go test` —
// the repository's tier-1 gate, which CI runs — so a frame type can no
// longer land without its byte-offset spec, and a moved file or a deleted
// identifier can no longer leave the docs pointing at nothing.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// DocFiles lists the repo-relative markdown files the link checker covers:
// the README, the docs/ tree, and the paper/roadmap material.
func DocFiles(root string) ([]string, error) {
	var files []string
	for _, name := range []string{"README.md", "PAPER.md", "PAPERS.md", "ROADMAP.md"} {
		if _, err := os.Stat(filepath.Join(root, name)); err == nil {
			files = append(files, name)
		}
	}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		files = append(files, rel)
	}
	return files, nil
}

// mdLink matches one inline markdown link and captures its target. Images
// (`![...](...)`) are matched the same way — their targets must exist too,
// except remote ones, which are skipped like every absolute URL.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// CheckLinks verifies every relative link target in the given repo-relative
// markdown files, returning one finding per broken link.
func CheckLinks(root string, files []string) ([]string, error) {
	var findings []string
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			return nil, err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0] // drop the anchor
			if target == "" {
				continue
			}
			resolved := filepath.Join(root, filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				findings = append(findings, fmt.Sprintf("%s: broken link %q", file, m[1]))
			}
		}
	}
	return findings, nil
}

// msgConst matches one Msg* constant declaration line of the transport
// message-type block (tab-indented, as gofmt formats the const block).
var msgConst = regexp.MustCompile(`(?m)^\t(Msg[A-Za-z0-9]+)\b`)

// WireFrameCoverage verifies that every Msg* constant declared in
// internal/transport/message.go appears in docs/WIRE.md, returning one
// finding per unspecified frame type.
func WireFrameCoverage(root string) ([]string, error) {
	src, err := os.ReadFile(filepath.Join(root, "internal", "transport", "message.go"))
	if err != nil {
		return nil, err
	}
	spec, err := os.ReadFile(filepath.Join(root, "docs", "WIRE.md"))
	if err != nil {
		return nil, err
	}
	var findings []string
	seen := map[string]bool{}
	for _, m := range msgConst.FindAllStringSubmatch(string(src), -1) {
		name := m[1]
		if seen[name] {
			continue
		}
		seen[name] = true
		if !strings.Contains(string(spec), name) {
			findings = append(findings, fmt.Sprintf("docs/WIRE.md: frame type %s has no spec entry", name))
		}
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("doccheck: no Msg* constants found in transport/message.go")
	}
	return findings, nil
}

// DeclFiles lists the repo-relative files whose backticked references the
// declaration check resolves.
var DeclFiles = []string{"README.md", "docs/ARCHITECTURE.md", "docs/WIRE.md", "doc.go"}

// declRef matches one backticked `pkg.Name` or `pkg.Type.Name`, optionally
// called: a lower-case package name, then one or two exported names.
var declRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Z][A-Za-z0-9_]*))?(?:\\(\\))?`")

// packageDecls maps every package under root/internal to the names it
// declares: top-level identifiers as Name, and methods, struct fields and
// interface methods as Type.Name.
func packageDecls(root string) (map[string]map[string]bool, error) {
	pkgs := map[string]map[string]bool{}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decls := pkgs[f.Name.Name]
			if decls == nil {
				decls = map[string]bool{}
				pkgs[f.Name.Name] = decls
			}
			addDecls(decls, f)
		}
		return nil
	})
	return pkgs, err
}

// addDecls records what one file declares.
func addDecls(decls map[string]bool, f *ast.File) {
	members := func(typ string, fields *ast.FieldList) {
		for _, fd := range fields.List {
			for _, name := range fd.Names {
				decls[typ+"."+name.Name] = true
			}
			if len(fd.Names) == 0 { // embedded: named by its type
				t := fd.Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				if sel, ok := t.(*ast.SelectorExpr); ok {
					t = sel.Sel
				}
				if id, ok := t.(*ast.Ident); ok {
					decls[typ+"."+id.Name] = true
				}
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				decls[id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					decls[spec.Name.Name] = true
					switch t := spec.Type.(type) {
					case *ast.StructType:
						members(spec.Name.Name, t.Fields)
					case *ast.InterfaceType:
						members(spec.Name.Name, t.Methods)
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						decls[name.Name] = true
					}
				}
			}
		}
	}
}

// DeclRefs resolves every backticked `pkg.Name` / `pkg.Type.Name` in the
// given repo-relative files whose pkg is a package under internal/, returning
// one finding per reference that names no declaration there, and how many
// references it checked.
func DeclRefs(root string, files []string) (findings []string, checked int, err error) {
	pkgs, err := packageDecls(root)
	if err != nil {
		return nil, 0, err
	}
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			return nil, 0, err
		}
		for _, m := range declRef.FindAllStringSubmatch(string(data), -1) {
			decls, ok := pkgs[m[1]]
			if !ok {
				continue // not one of ours: the standard library, a CLI name
			}
			checked++
			name := m[2]
			if m[3] != "" {
				name += "." + m[3]
			}
			if !decls[name] {
				findings = append(findings, fmt.Sprintf("%s: %s names no declaration in package %s", file, m[0], m[1]))
			}
		}
	}
	return findings, checked, nil
}

// knobHeading opens README's engine knob table.
const knobHeading = "## Knobs (`core.Config`)"

// backticked matches one backticked identifier.
var backticked = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)`")

// KnobTable compares the fields README.md's engine knob table names, in the
// first column of the table under knobHeading, with the exported fields of
// core.Config, returning one finding per field only one side has.
func KnobTable(root string) ([]string, error) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}
	_, section, ok := strings.Cut(string(readme), knobHeading+"\n")
	if !ok {
		return nil, fmt.Errorf("doccheck: README.md has no %q section", knobHeading)
	}
	listed := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			listed[m[1]] = true
		}
	}
	if len(listed) == 0 {
		return nil, fmt.Errorf("doccheck: README.md's knob table lists no field")
	}

	fields := map[string]bool{}
	paths, err := filepath.Glob(filepath.Join(root, "internal", "core", "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Config" {
				return true
			}
			for _, fd := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range fd.Names {
					if name.IsExported() {
						fields[name.Name] = true
					}
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("doccheck: no core.Config fields found")
	}

	var findings []string
	for f := range fields {
		if !listed[f] {
			findings = append(findings, fmt.Sprintf("README.md: core.Config.%s is missing from the knob table", f))
		}
	}
	for f := range listed {
		if !fields[f] {
			findings = append(findings, fmt.Sprintf("README.md: the knob table lists %s, which core.Config does not declare", f))
		}
	}
	sort.Strings(findings)
	return findings, nil
}
