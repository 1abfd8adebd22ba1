package archcheck

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var repoRoot = filepath.Join("..", "..", "..")

// lineBudgets bound packages' non-test lines, counted as `cat *.go | wc -l`
// counts them. A budget only grows in the change that defends it.
var lineBudgets = map[string]int{
	"cmd/bbench":               1380,
	"internal/bitmap":          903,
	"internal/blockdev/bcache": 596,
	"internal/cluster":         1467,
	"internal/core":            4524,
	"internal/dedup":           599,
	"internal/forecast":        411,
	"internal/hostd":           1019,
	"internal/sim":             2091,
	"internal/transport":       2265,
}

// moduleLineBudget bounds the non-test lines of every package outside the
// benchmark module, counted as lineBudgets counts them. It only shrinks.
const moduleLineBudget = 20698

// optionBudgets bound the settable surface of the option types: the exported
// fields of a struct, as dir/Type, or the parameters of a function, as
// dir/Func or dir/Recv.Method. A budget only grows in the change that
// defends it.
var optionBudgets = map[string]int{
	"internal/core/Config":               21,
	"internal/cluster/Options":           7,
	"internal/cluster/MemberOptions":     1,
	"internal/cluster/DrainOptions":      2,
	"internal/cluster/AutopilotOptions":  2,
	"internal/cluster/Cluster.Rebalance": 0,
}

// The reasons a function no non-test file names may stay. They are three of
// the four categories of docs/REACHABILITY.txt, the measured list of what no
// shipped entry point reaches (internal/tools/reach/run.sh); its fourth, fault
// paths, are named by shipped code and only missed by a fault-free run.
const (
	testFake      = "test fake"
	paperBaseline = "paper baseline the goldens compare against"
	observer      = "observer a test asserts through"
)

// testOnly is the allow-list of the "no test-only code" rule: functions no
// non-test file names, as dir/Name or dir/Recv.Name, each with its reason.
var testOnly = map[string]string{
	"internal/bitmap/Bitmap.Equal":                observer,
	"internal/blkback/Backend.Tracking":           observer,
	"internal/blkback/PostCopyGate.NeedsPush":     observer,
	"internal/blkback/PostCopyGate.Synchronized":  observer,
	"internal/blockdev/Fingerprint":               observer,
	"internal/blockdev/MemDisk.WrittenBlocks":     observer,
	"internal/cluster/Cluster.Budget":             observer,
	"internal/cluster/Cluster.DomainModel":        observer,
	"internal/cluster/Ticket.Done":                observer,
	"internal/core/DeltaForwarder.Deltas":         paperBaseline,
	"internal/core/DeltaForwarder.Submit":         paperBaseline,
	"internal/core/MigrateDeltaDest":              paperBaseline,
	"internal/core/MigrateDeltaSource":            paperBaseline,
	"internal/core/MigrateFreezeAndCopyDest":      paperBaseline,
	"internal/core/MigrateFreezeAndCopySource":    paperBaseline,
	"internal/core/MigrateOnDemandDest":           paperBaseline,
	"internal/core/MigrateOnDemandSource":         paperBaseline,
	"internal/core/NewDeltaForwarder":             paperBaseline,
	"internal/core/RateBudget.Active":             observer,
	"internal/core/Vault.DivergentBlocks":         observer,
	"internal/core/Vault.Peers":                   observer,
	"internal/forecast/Model.MeanRate":            observer,
	"internal/forecast/Model.NextTrough":          observer,
	"internal/forecast/Model.Period":              observer,
	"internal/forecast/Model.Periodicity":         observer,
	"internal/forecast/Model.Rate":                observer,
	"internal/forecast/Model.RateAt":              observer,
	"internal/hostd/Domain.Vault":                 observer,
	"internal/hostd/Machine.ActiveMigrations":     observer,
	"internal/hostd/Machine.ContentIndex":         observer,
	"internal/transport/Injector.Epochs":          testFake,
	"internal/transport/Injector.Wrap":            testFake,
	"internal/transport/NewFaultConn":             testFake,
	"internal/transport/NewInjector":              testFake,
	"internal/transport/SetBufPoison":             testFake,
	"internal/transport/Striped.BytesReceived":    observer,
	"internal/transport/Striped.BytesSent":        observer,
	"internal/transport/Striped.MessagesReceived": observer,
	"internal/vm/BaseBook.Bases":                  observer,
	"internal/vm/BaseBook.Hot":                    observer,
	"internal/vm/Memory.AllocatedPages":           observer,
	"internal/vm/Memory.Tracking":                 observer,
	"internal/vm/Memory.Writes":                   observer,
	"internal/workload/Diabolical.PhaseAt":        observer,
	"internal/workload/NewShadow":                 testFake,
	"internal/workload/Shadow.Submit":             testFake,
	"internal/workload/Shadow.Verify":             testFake,
	"internal/workload/TraceReader.Len":           observer,
}

// source is one package's non-test files, parsed.
type source struct {
	fset  *token.FileSet
	files []*ast.File
	lines int
}

func parse(t *testing.T, dir string) source {
	t.Helper()
	src := source{fset: token.NewFileSet()}
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(repoRoot, dir)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(src.fset, p, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		src.files = append(src.files, f)
		src.lines += bytes.Count(data, []byte("\n"))
	}
	return src
}

// imports reports whether any file imports one of paths.
func (s source) imports(paths ...string) bool {
	for _, f := range s.files {
		for _, imp := range f.Imports {
			for _, p := range paths {
				if strings.Trim(imp.Path.Value, `"`) == p {
					return true
				}
			}
		}
	}
	return false
}

// packageDirs lists the repository's package directories relative to its
// root, the separately built benchmark module included.
func packageDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(repoRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(repoRoot, p)
		if err != nil {
			return err
		}
		if rel != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// inspect calls visit on every node, with the base name of its file.
func (s source) inspect(visit func(file string, n ast.Node)) {
	for _, f := range s.files {
		name := filepath.Base(s.fset.Position(f.Pos()).Filename)
		ast.Inspect(f, func(n ast.Node) bool {
			visit(name, n)
			return true
		})
	}
}

// method names the method a selector calls as pkg.Type.Method, or "".
func method(info *types.Info, sel *ast.SelectorExpr) string {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return ""
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil { // error.Error has no package
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// declsWhere names the top-level declarations holding a node match accepts:
// a function as funcName does, anything else as "package scope".
func (s source) declsWhere(match func(ast.Node) bool) map[string]bool {
	found := map[string]bool{}
	for _, f := range s.files {
		for _, d := range f.Decls {
			name := "package scope"
			if fn, ok := d.(*ast.FuncDecl); ok {
				name = funcName(fn)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if match(n) {
					found[name] = true
				}
				return true
			})
		}
	}
	return found
}

// funcName names a function declaration as Recv.Name, or Name.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return recv.(*ast.Ident).Name + "." + fn.Name.Name
}

// msgName is the frame type constant e names, or "".
func msgName(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Msg") {
		return sel.Sel.Name
	}
	return ""
}

// builtFrame is the frame type n builds — `Type: transport.Msg…` in a
// literal, or `m.Type = transport.Msg…` — or "".
func builtFrame(n ast.Node) string {
	switch n := n.(type) {
	case *ast.KeyValueExpr:
		if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Type" {
			return msgName(n.Value)
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Type" && i < len(n.Rhs) {
				return msgName(n.Rhs[i])
			}
		}
	}
	return ""
}

// dataFrames are the frame types transport.IsDataFrame names.
var dataFrames = map[string]bool{
	"MsgBlockData": true, "MsgExtent": true, "MsgZeroExtent": true,
	"MsgMemPage": true, "MsgMemPageDelta": true, "MsgMemPages": true,
}

// stdImporter type-checks the standard library from source once for every
// streamWrites call.
var stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)

// streamWrites lists what breaks "one socket writer" in the transport package
// parsed as src: a function other than streamConn.flushLocked that writes to a
// stream — a Write, WriteTo, WriteString or ReadFrom through an interface or
// net.Buffers, or an io, binary or fmt helper that writes — a data-frame
// predicate other than IsDataFrame — a func(MsgType) bool, or one logical
// expression comparing two data frame types — and a streamConn.Send that
// does not ask IsDataFrame what to stage.
func streamWrites(t *testing.T, src source) []string {
	t.Helper()
	conf := types.Config{Importer: stdImporter}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	if _, err := conf.Check("bbmig/internal/transport", src.fset, src.files, info); err != nil {
		t.Fatal(err)
	}
	writes := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if pkg, ok := sel.X.(*ast.Ident); ok {
			switch pkg.Name + "." + sel.Sel.Name {
			case "io.Copy", "io.CopyN", "io.CopyBuffer", "io.WriteString", "binary.Write", "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln":
				return true
			}
		}
		s := info.Selections[sel]
		switch sel.Sel.Name {
		case "Write", "WriteTo", "WriteString", "ReadFrom":
		default:
			return false
		}
		if s == nil || s.Kind() != types.MethodVal {
			return false
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		return types.IsInterface(recv) || recv.String() == "net.Buffers"
	}
	comparesData := func(e ast.Expr) map[string]bool {
		named := map[string]bool{}
		var walk func(ast.Expr)
		walk = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.ParenExpr:
				walk(e.X)
			case *ast.BinaryExpr:
				switch e.Op {
				case token.LOR, token.LAND:
					walk(e.X)
					walk(e.Y)
				case token.EQL, token.NEQ:
					for _, side := range []ast.Expr{e.X, e.Y} {
						if id, ok := side.(*ast.Ident); ok && dataFrames[id.Name] {
							named[id.Name] = true
						}
					}
				}
			}
		}
		walk(e)
		return named
	}
	predicate := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			if n.Results == nil || len(n.Results.List) != 1 || types.ExprString(n.Results.List[0].Type) != "bool" {
				return false
			}
			for _, p := range n.Params.List {
				if types.ExprString(p.Type) == "MsgType" {
					return true
				}
			}
		case *ast.BinaryExpr:
			return (n.Op == token.LOR || n.Op == token.LAND) && len(comparesData(n)) >= 2
		}
		return false
	}
	var bad []string
	for fn := range src.declsWhere(writes) {
		if fn != "streamConn.flushLocked" {
			bad = append(bad, fn+" writes to a stream")
		}
	}
	for fn := range src.declsWhere(predicate) {
		if fn != "IsDataFrame" {
			bad = append(bad, fn+" is a second data-frame predicate")
		}
	}
	asks := false
	for _, f := range src.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == "streamConn.Send" {
				ast.Inspect(fd, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "IsDataFrame" {
							asks = true
						}
					}
					return true
				})
			}
		}
	}
	if !asks {
		bad = append(bad, "streamConn.Send stages without asking IsDataFrame")
	}
	return bad
}

// patchTrailers lists what breaks "one patch trailer" in the delta package
// parsed as src: crypto/sha256 named anywhere but trailer, and trailer asked
// by anything but Differ.Diff, which writes it, and AppendApply, which checks
// it — or not asked by both.
func patchTrailers(src source) []string {
	sha := map[string]bool{}
	for _, f := range src.files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "crypto/sha256" {
				name := "sha256"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				sha[name] = true
			}
		}
	}
	var bad []string
	hashers := src.declsWhere(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && sha[pkg.Name]
	})
	if want := map[string]bool{"trailer": true}; !reflect.DeepEqual(hashers, want) {
		bad = append(bad, fmt.Sprintf("crypto/sha256 named in %v, want only %v", hashers, want))
	}
	callers := src.declsWhere(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "trailer"
	})
	if want := map[string]bool{"Differ.Diff": true, "AppendApply": true}; !reflect.DeepEqual(callers, want) {
		bad = append(bad, fmt.Sprintf("trailer called from %v, want exactly %v", callers, want))
	}
	return bad
}

// optionCounts counts, for every struct and function src declares, keyed as
// optionBudgets keys them under dir, the struct's exported fields or the
// function's parameters.
func optionCounts(dir string, src source) map[string]int {
	counts := map[string]int{}
	width := func(fields *ast.FieldList, exportedOnly bool) (n int) {
		for _, f := range fields.List {
			var names []string
			for _, id := range f.Names {
				names = append(names, id.Name)
			}
			if len(names) == 0 { // an embedded field or an unnamed parameter: its type names it
				typ := types.ExprString(f.Type)
				names = append(names, typ[strings.LastIndexAny(typ, ".*")+1:])
			}
			for _, name := range names {
				if !exportedOnly || token.IsExported(name) {
					n++
				}
			}
		}
		return n
	}
	for _, f := range src.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				counts[path.Join(dir, funcName(d))] = width(d.Type.Params, false)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							counts[path.Join(dir, ts.Name.Name)] = width(st.Fields, true)
						}
					}
				}
			}
		}
	}
	return counts
}

// overBudget lists the optionBudgets entries under dir that src declares
// wider than their budget, or does not declare at all.
func overBudget(dir string, src source) []string {
	counts := optionCounts(dir, src)
	var bad []string
	for key, budget := range optionBudgets {
		if path.Dir(key) != dir {
			continue
		}
		n, ok := counts[key]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s is not declared: its budget has rotted", key))
		case n > budget:
			bad = append(bad, fmt.Sprintf("%s has %d settable values, budget %d", key, n, budget))
		}
	}
	return bad
}

// TestOptionBudgetCatchesPlants runs the option budgets on copies of
// internal/cluster, each with one settable value planted: every plant fails
// them, the untouched copy passes.
func TestOptionBudgetCatchesPlants(t *testing.T) {
	dir := filepath.Join(repoRoot, "internal/cluster")
	plants := map[string]struct{ file, from, to string }{
		"clean":           {},
		"field":           {"drain.go", "\tRetries int\n}", "\tRetries int\n\tExclude []string\n}"},
		"embedded field":  {"autopilot.go", "\tMaxMovesPerCycle int\n}", "\tMaxMovesPerCycle int\n\tDrainOptions\n}"},
		"variadic option": {"drain.go", "Rebalance() (", "Rebalance(exclude ...string) ("},
	}
	for name, p := range plants {
		tmp := t.TempDir()
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if p.file == filepath.Base(path) {
				if !bytes.Contains(data, []byte(p.from)) {
					t.Fatalf("%s: %s no longer holds %q", name, p.file, p.from)
				}
				data = bytes.Replace(data, []byte(p.from), []byte(p.to), 1)
			}
			if err := os.WriteFile(filepath.Join(tmp, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if bad := overBudget("internal/cluster", parse(t, tmp)); (len(bad) == 0) != (name == "clean") {
			t.Errorf("%s: the budgets report %v", name, bad)
		}
	}
}

// TestPatchTrailerCatchesPlants runs the "one patch trailer" rule on copies
// of internal/delta, each with one defect planted: every plant fails it, the
// untouched copy passes.
func TestPatchTrailerCatchesPlants(t *testing.T) {
	dir := filepath.Join(repoRoot, "internal/delta")
	check := "if sum := trailer(out[len(dst):]); !bytes.Equal(sum[:], verify) {"
	plants := map[string]struct{ file, code, from, to string }{
		"clean":          {},
		"second hasher":  {file: "plant.go", code: "package delta\n\nimport \"crypto/sha256\"\n\nfunc sum(p []byte) [32]byte { return sha256.Sum256(p) }\n"},
		"renamed import": {file: "plant.go", code: "package delta\n\nimport h \"crypto/sha256\"\n\nvar newHash = h.New\n"},
		"unchecked":      {file: "delta.go", from: check, to: "if sum := verify; !bytes.Equal(sum, verify) {"},
		"third caller":   {file: "plant.go", code: "package delta\n\nfunc verified(p []byte) []byte { t := trailer(p); return t[:] }\n"},
	}
	for name, p := range plants {
		tmp := t.TempDir()
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if p.from != "" && filepath.Base(path) == p.file {
				if !bytes.Contains(data, []byte(p.from)) {
					t.Fatalf("%s: %s no longer holds %q", name, p.file, p.from)
				}
				data = bytes.Replace(data, []byte(p.from), []byte(p.to), 1)
			}
			if err := os.WriteFile(filepath.Join(tmp, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if p.code != "" {
			if err := os.WriteFile(filepath.Join(tmp, p.file), []byte(p.code), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if bad := patchTrailers(parse(t, tmp)); (len(bad) == 0) != (name == "clean") {
			t.Errorf("%s: the rule reports %v", name, bad)
		}
	}
}

// TestStreamWritesCatchesPlants runs the "one socket writer" rule on copies
// of internal/transport, each with one defect planted: every plant fails it,
// the untouched copy passes.
func TestStreamWritesCatchesPlants(t *testing.T) {
	dir := filepath.Join(repoRoot, "internal/transport")
	plants := map[string]struct{ file, code string }{
		"clean":         {},
		"second writer": {"plant.go", "package transport\n\nfunc (s *streamConn) sendNow(b []byte) error {\n\t_, err := s.w.Write(b)\n\treturn err\n}\n"},
		"io helper":     {"plant.go", "package transport\n\nimport \"io\"\n\nfunc copyOut(w io.Writer, b string) { io.WriteString(w, b) }\n"},
		"predicate":     {"plant.go", "package transport\n\nfunc isBulk(t MsgType) bool { return t == MsgBlockData }\n"},
		"inline":        {"plant.go", "package transport\n\nfunc stageable(m Message) bool { return m.Type == MsgExtent || m.Type == MsgMemPages }\n"},
		"unasked":       {"conn.go", ""},
	}
	for name, p := range plants {
		tmp := t.TempDir()
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if name == "unasked" && filepath.Base(path) == p.file {
				data = bytes.Replace(data, []byte("IsDataFrame(m.Type)"), []byte("m.Type == MsgBlockData"), 1)
			}
			if err := os.WriteFile(filepath.Join(tmp, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if p.code != "" {
			if err := os.WriteFile(filepath.Join(tmp, p.file), []byte(p.code), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if bad := streamWrites(t, parse(t, tmp)); (len(bad) == 0) != (name == "clean") {
			t.Errorf("%s: the rule reports %v", name, bad)
		}
	}
}

// advertHashers lists what breaks "advert fingerprints through the memo" in
// the core package parsed as src: dedup.Of named — called or taken as a
// value, under whatever name the file imports the package — anywhere but
// fetchFromPeer, the swarm arrival check, or not named there, where the rule
// has nothing left to hold.
func advertHashers(src source) []string {
	named := map[string]bool{}
	for _, f := range src.files {
		pkg := "" // the file's name for the dedup package, if it imports it
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "bbmig/internal/dedup" {
				pkg = "dedup"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		for _, d := range f.Decls {
			name := "package scope"
			if fn, ok := d.(*ast.FuncDecl); ok {
				name = funcName(fn)
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && pkg != "" && id.Name == pkg && n.Sel.Name == "Of" {
						named[name] = true
					}
					ast.Inspect(n.X, visit)
					return false // a field or method named Of is not the package's
				case *ast.Ident:
					if pkg == "." && n.Name == "Of" {
						named[name] = true
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}
	if want := map[string]bool{"fetchFromPeer": true}; !reflect.DeepEqual(named, want) {
		return []string{fmt.Sprintf("dedup.Of named in %v, want only %v", named, want)}
	}
	return nil
}

// TestAdvertHashersCatchesPlants runs "advert fingerprints through the memo"
// on copies of internal/core, each with one defect planted: every plant
// fails it, the untouched copy passes.
func TestAdvertHashersCatchesPlants(t *testing.T) {
	dir := filepath.Join(repoRoot, "internal/core")
	const memo, arrival = "w.memo.Of(p.ext.Start+k, blk, 0)", "dedup.Of(content) != fp"
	plants := map[string]struct{ file, code, from, to string }{
		"clean":          {},
		"memo bypassed":  {file: "probe.go", from: memo, to: "dedup.Of(blk), true"},
		"second caller":  {file: "plant.go", code: "package core\n\nimport \"bbmig/internal/dedup\"\n\nfunc sum(p []byte) dedup.Fingerprint { return dedup.Of(p) }\n"},
		"renamed import": {file: "plant.go", code: "package core\n\nimport d \"bbmig/internal/dedup\"\n\nvar hash = d.Of\n"},
		"dot import":     {file: "plant.go", code: "package core\n\nimport . \"bbmig/internal/dedup\"\n\nvar hash = Of\n"},
		"arrival gone":   {file: "swarm.go", from: arrival, to: "len(content) == 0"},
		"nested":         {file: "plant.go", code: "package core\n\nimport \"bbmig/internal/dedup\"\n\nfunc sum(p []byte) dedup.Fingerprint { return struct{ fp dedup.Fingerprint }{dedup.Of(p)}.fp }\n"},
	}
	for name, p := range plants {
		tmp := t.TempDir()
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if p.from != "" && filepath.Base(path) == p.file {
				if !bytes.Contains(data, []byte(p.from)) {
					t.Fatalf("%s: %s no longer holds %q", name, p.file, p.from)
				}
				data = bytes.Replace(data, []byte(p.from), []byte(p.to), 1)
			}
			if err := os.WriteFile(filepath.Join(tmp, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if p.code != "" {
			if err := os.WriteFile(filepath.Join(tmp, p.file), []byte(p.code), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if bad := advertHashers(parse(t, tmp)); (len(bad) == 0) != (name == "clean") {
			t.Errorf("%s: the rule reports %v", name, bad)
		}
	}
}

// deviceCalls lists what breaks "device blocks through the extent helpers"
// in the package parsed as src: a ReadBlock or WriteBlock named on anything —
// called, in a loop or not, or taken as a method value — a ReadExtent or
// WriteExtent method reached past the blockdev package's helpers, and a
// package that calls neither helper, where the rule has nothing left to hold.
func deviceCalls(src source) []string {
	var bad []string
	helpers := map[string]bool{}
	for _, f := range src.files {
		pkg := "" // the file's name for the blockdev package, if it imports it
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "bbmig/internal/blockdev" {
				pkg = "blockdev"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, _ := sel.X.(*ast.Ident)
			at := src.fset.Position(sel.Pos())
			switch name := sel.Sel.Name; {
			case name == "ReadBlock" || name == "WriteBlock":
				bad = append(bad, fmt.Sprintf("%s:%d: %s reaches a device one block at a time", filepath.Base(at.Filename), at.Line, name))
			case name != "ReadExtent" && name != "WriteExtent":
			case id != nil && pkg != "" && id.Name == pkg:
				helpers[name] = true
			default:
				bad = append(bad, fmt.Sprintf("%s:%d: %s called past the blockdev helper", filepath.Base(at.Filename), at.Line, name))
			}
			return true
		})
	}
	if !helpers["ReadExtent"] || !helpers["WriteExtent"] {
		bad = append(bad, fmt.Sprintf("the blockdev helpers called: %v, want ReadExtent and WriteExtent", helpers))
	}
	return bad
}

// TestDeviceCallsCatchesPlants runs "device blocks through the extent
// helpers" on copies of internal/core, each with one defect planted: every
// plant fails it, the untouched copy passes.
func TestDeviceCallsCatchesPlants(t *testing.T) {
	dir := filepath.Join(repoRoot, "internal/core")
	const read = "blockdev.ReadExtent(dev, ext.Start, ext.Count, data)"
	plants := map[string]struct{ file, code, from, to string }{
		"clean":        {},
		"block loop":   {file: "plant.go", code: "package core\n\nimport \"bbmig/internal/blockdev\"\n\nfunc readAll(d blockdev.Device, buf []byte) error {\n\tfor n := 0; n < d.NumBlocks(); n++ {\n\t\tif err := d.ReadBlock(n, buf); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n\treturn nil\n}\n"},
		"method value": {file: "plant.go", code: "package core\n\nimport \"bbmig/internal/blockdev\"\n\nfunc writer(d blockdev.Device) func(int, []byte) error { return d.WriteBlock }\n"},
		"past helper":  {file: "transfer.go", from: read, to: "dev.(blockdev.ExtentDevice).ReadExtent(ext.Start, ext.Count, data)"},
		"helper gone":  {file: "transfer.go", from: read, to: "blockdev.CheckExtent(dev, ext.Start, ext.Count, len(data))"},
	}
	for name, p := range plants {
		tmp := t.TempDir()
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if p.from != "" && filepath.Base(path) == p.file {
				if !bytes.Contains(data, []byte(p.from)) {
					t.Fatalf("%s: %s no longer holds %q", name, p.file, p.from)
				}
				data = bytes.Replace(data, []byte(p.from), []byte(p.to), 1)
			}
			if err := os.WriteFile(filepath.Join(tmp, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if p.code != "" {
			if err := os.WriteFile(filepath.Join(tmp, p.file), []byte(p.code), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if bad := deviceCalls(parse(t, tmp)); (len(bad) == 0) != (name == "clean") {
			t.Errorf("%s: the rule reports %v", name, bad)
		}
	}
}

// TestArchitecture is the repository's structural contract, in place of the
// grep guards CI used to run. Each rule names a thing there is one of; a
// second one, whatever it is called, fails it.
func TestArchitecture(t *testing.T) {
	t.Run("hostd runs no engine loop", func(t *testing.T) {
		// hostd owns connections and vaults, not transfer loops: a limiter, an
		// extent walk or a want-bitmap walk there is a second copy of engine
		// code.
		hostd := parse(t, "internal/hostd")
		hostd.inspect(func(file string, n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			pkg, _ := sel.X.(*ast.Ident)
			qualified := sel.Sel.Name
			if pkg != nil {
				qualified = pkg.Name + "." + qualified
			}
			switch {
			case sel.Sel.Name == "NextExtent", qualified == "dedup.WalkWant":
				t.Errorf("%s: hostd calls %s: a second copy of engine code", hostd.fset.Position(call.Pos()), qualified)
			}
		})
	})

	t.Run("hostd negotiates nothing the engine sees", func(t *testing.T) {
		// The destination engine follows compression, dedup and delta frames
		// and a resumable HELLO by itself, the bundle labels its own width,
		// and MigrateOut hands the caller's config to the engine untouched: a
		// hostd that names these knobs, or an announce that carries them, is
		// a second negotiation.
		hostd := parse(t, "internal/hostd")
		announced := false
		hostd.inspect(func(file string, n ast.Node) {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "CompressLevel" || n.Name == "Delta" {
					t.Errorf("%s: hostd names %s", hostd.fset.Position(n.Pos()), n.Name)
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || n.Name.Name != "announce" {
					return
				}
				announced = true
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						for _, knob := range []string{"compress", "resume", "delta", "stream"} {
							if strings.Contains(strings.ToLower(name.Name), knob) {
								t.Errorf("%s: announce field %s carries what the engine negotiates", hostd.fset.Position(name.Pos()), name.Name)
							}
						}
					}
				}
			}
		})
		if !announced {
			t.Error("internal/hostd: no announce struct: the rule has rotted")
		}
	})

	conf := types.Config{Importer: importer.ForCompiler(token.NewFileSet(), "source", nil)}
	core := parse(t, "internal/core")
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := conf.Check("bbmig/internal/core", core.fset, core.files, info)
	if err != nil {
		t.Fatal(err)
	}
	calls, frames := map[string]int{}, map[string]int{}
	spawns, queues := map[string]int{}, map[string]bool{}
	core.inspect(func(file string, n ast.Node) {
		frames[builtFrame(n)]++
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				calls[method(info, sel)]++
			}
		case *ast.GoStmt:
			spawns[file]++
		case *ast.ChanType:
			if id, ok := n.Value.(*ast.Ident); ok && id.Name == "job" {
				queues[file] = true
			}
		}
	})

	t.Run("schemes are phase lists", func(t *testing.T) {
		// The guest is frozen, resumed and announced as resumed from one step
		// each, whatever the scheme; pre-copy and the freeze frame pages
		// through one send path, which asks the base book for the form and
		// batches what it frames. None may be missing either: a rule that
		// counts nothing has rotted.
		for name, n := range map[string]int{
			"vm.VM.Suspend": calls["vm.VM.Suspend"], "vm.VM.Resume": calls["vm.VM.Resume"],
			"MsgResumed": frames["MsgResumed"], "MsgMemPage": frames["MsgMemPage"], "MsgMemPageDelta": frames["MsgMemPageDelta"],
			"MsgMemPages": frames["MsgMemPages"],
		} {
			if n != 1 {
				t.Errorf("internal/core: %d places do %s, want exactly 1", n, name)
			}
		}
	})

	t.Run("one zero-run encoder", func(t *testing.T) {
		// A MsgZeroExtent is built by the head stage of the source's extent
		// encoder chain and nowhere else in shipped code: a second builder is a
		// second zero-elision rule, or a zero run sent where the destination
		// accepts none (post-copy, pull replies, memory).
		builders := map[string]bool{}
		for _, dir := range packageDirs(t) {
			for fn := range parse(t, dir).declsWhere(func(n ast.Node) bool { return builtFrame(n) == "MsgZeroExtent" }) {
				builders[dir+"/"+fn] = true
			}
		}
		if want := map[string]bool{"internal/core/transfer.zeroEncoder": true}; !reflect.DeepEqual(builders, want) {
			t.Errorf("MsgZeroExtent built in %v, want only %v", builders, want)
		}
	})

	t.Run("device blocks through the extent helpers", func(t *testing.T) {
		// The engine reaches a device's blocks through blockdev.ReadExtent and
		// WriteExtent only, so an extent costs one device request wherever the
		// device can serve one (a pread, a lock per run) and the per-block
		// fallback lives in one place. A ReadBlock loop here is the 64 calls
		// per extent the helpers replaced.
		for _, bad := range deviceCalls(core) {
			t.Errorf("internal/core: %s", bad)
		}
	})

	t.Run("advert fingerprints through the memo", func(t *testing.T) {
		// The source hashes an advert's content through the window's
		// dedup.Memo, which hashes each distinct content once per pass on a
		// stamped disk and every block elsewhere; the one other SHA-256 in the
		// engine is the swarm arrival check, which proves a peer's bytes. A
		// second caller is an advert fingerprint the memo's proof does not
		// cover, or work the memo was there to save.
		for _, bad := range advertHashers(core) {
			t.Errorf("internal/core: %s", bad)
		}
	})

	t.Run("one walker, one lane pool", func(t *testing.T) {
		// The source cuts extents in one walker and both endpoints run jobs on
		// the pool in scatter.go; goroutines start only from an allow-list:
		// the on-demand receive loop, the pool's lanes, the source's reader, a
		// swarm fetch.
		if n := calls["core.owedCursor.next"]; n != 1 {
			t.Errorf("internal/core: %d calls cut extents off an owedCursor, want exactly 1", n)
		}
		if want := map[string]bool{"scatter.go": true}; !reflect.DeepEqual(queues, want) {
			t.Errorf("internal/core: job queues in %v, want only %v", queues, want)
		}
		if want := map[string]int{"baselines.go": 1, "scatter.go": 1, "source.go": 1, "swarm.go": 1}; !reflect.DeepEqual(spawns, want) {
			t.Errorf("internal/core: go statements per file %v, allowed %v", spawns, want)
		}
		// Pools are built by the source's walker, the destination's run and
		// the pre-sync receiver, and nowhere else.
		pools := core.declsWhere(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "newLanePool"
		})
		if want := map[string]bool{"transfer.sendExtents": true, "destRun.run": true, "SyncDest": true}; !reflect.DeepEqual(pools, want) {
			t.Errorf("internal/core: newLanePool called from %v, allowed %v", pools, want)
		}
	})

	t.Run("one stop rule", func(t *testing.T) {
		// The paper's pre-copy stop conditions are one function, asked by the
		// engine's one pre-copy loop and the simulator's one pre-copy driver,
		// which runs its disk and memory phases and the fleet model's
		// closed-form migrations; anything else naming it is a second place
		// the law is applied.
		stop := pkg.Scope().Lookup("ContinuePreCopy")
		askers := map[string]bool{}
		for fn := range core.declsWhere(func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			return ok && info.Uses[id] == stop
		}) {
			askers["internal/core/"+fn] = true
		}
		for _, dir := range packageDirs(t) {
			for fn := range parse(t, dir).declsWhere(func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				pkg, ok := sel.X.(*ast.Ident)
				return ok && pkg.Name == "core" && sel.Sel.Name == "ContinuePreCopy"
			}) {
				askers[dir+"/"+fn] = true
			}
		}
		want := map[string]bool{
			"internal/core/transfer.preCopyLoop": true, "internal/sim/runPreCopy": true,
		}
		if !reflect.DeepEqual(askers, want) {
			t.Errorf("ContinuePreCopy asked from %v, want exactly %v", askers, want)
		}
	})

	t.Run("core imports", func(t *testing.T) {
		// The engine sits on the substrates and nothing above them; the
		// pacing file sees no frames at all.
		allowed := map[string]bool{}
		for _, p := range []string{"bitmap", "blkback", "blockdev", "dedup", "delta", "metrics", "transport", "vm"} {
			allowed["bbmig/internal/"+p] = true
		}
		for _, f := range core.files {
			name := filepath.Base(core.fset.Position(f.Pos()).Filename)
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				inRepo := strings.HasPrefix(path, "bbmig/")
				if inRepo && !allowed[path] || name == "budget.go" && path == "bbmig/internal/transport" {
					t.Errorf("%s: imports %s", core.fset.Position(imp.Pos()), path)
				}
			}
		}
	})

	t.Run("one trough rule", func(t *testing.T) {
		// Outside internal/forecast a domain model is fed heartbeat counters
		// and asked DeferUntil, nothing else, and only the cluster's admission
		// and the fleet sweep ask: code that reads the estimators itself, or a
		// third caller, is a second trough rule. A model is reachable only
		// through forecast and cluster.DomainModel, so only their importers
		// are type-checked.
		deferrers := map[string]bool{}
		for _, dir := range packageDirs(t) {
			src := parse(t, dir)
			if dir == "internal/forecast" || !src.imports("bbmig/internal/forecast", "bbmig/internal/cluster") {
				continue
			}
			info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
			if _, err := conf.Check(path.Join("bbmig", dir), src.fset, src.files, info); err != nil {
				t.Fatal(err)
			}
			src.inspect(func(file string, n ast.Node) {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return
				}
				switch name, ok := strings.CutPrefix(method(info, sel), "forecast.Model."); {
				case !ok, name == "ObserveCount":
				case name == "DeferUntil":
					deferrers[dir] = true
				default:
					t.Errorf("%s: calls forecast.Model.%s", src.fset.Position(sel.Pos()), name)
				}
			})
		}
		if want := map[string]bool{"internal/cluster": true, "internal/sim": true}; !reflect.DeepEqual(deferrers, want) {
			t.Errorf("DeferUntil called from %v, want exactly %v", deferrers, want)
		}
	})

	t.Run("one bench runner", func(t *testing.T) {
		// Every engine row of the bbench suite starts its migration through one
		// endpoint-pair runner: a second function naming MigrateSource or
		// MigrateDest is a second copy of a row.
		bbench := parse(t, "cmd/bbench")
		for _, entry := range []string{"MigrateSource", "MigrateDest"} {
			runners := bbench.declsWhere(func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				pkg, ok := sel.X.(*ast.Ident)
				return ok && pkg.Name == "core" && sel.Sel.Name == entry
			})
			if len(runners) != 1 {
				t.Errorf("cmd/bbench: core.%s named in %v, want exactly one function", entry, runners)
			}
		}
	})

	t.Run("no test-only code", func(t *testing.T) {
		// Every function declared outside benchmark/ and internal/tools/ is
		// named by some non-test file, benchmark/ included, outside its own
		// body. A method is also named by any call through an interface with
		// a method of its name. Anything else is a feature only its own tests
		// run: it goes, or it is in testOnly with its reason.
		type decl struct {
			key string
			pos token.Position
			fn  *types.Func
		}
		var decls []decl
		named, viaInterface := map[string]bool{}, map[string]bool{}
		for _, dir := range packageDirs(t) {
			src := parse(t, dir)
			if len(src.files) == 0 {
				continue
			}
			info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			if _, err := conf.Check(path.Join("bbmig", dir), src.fset, src.files, info); err != nil {
				t.Fatal(err)
			}
			checked := dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") && !strings.HasPrefix(dir, "internal/tools/")
			bodies := map[*types.Func]ast.Node{}
			for _, f := range src.files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					fn := info.Defs[fd.Name].(*types.Func)
					bodies[fn] = fd
					if checked && (fd.Recv != nil || fd.Name.Name != "main" && fd.Name.Name != "init") {
						decls = append(decls, decl{path.Join(dir, funcName(fd)), src.fset.Position(fd.Pos()), fn})
					}
				}
			}
			for id, obj := range info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				fn = fn.Origin()
				if body := bodies[fn]; body != nil && body.Pos() <= id.Pos() && id.Pos() < body.End() {
					continue // recursion names nothing
				}
				named[fn.FullName()] = true
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					viaInterface[fn.Name()] = true
				}
			}
		}
		declared := map[string]bool{}
		for _, d := range decls {
			isMethod := d.fn.Type().(*types.Signature).Recv() != nil
			isNamed := named[d.fn.FullName()] || isMethod && viaInterface[d.fn.Name()]
			_, allowed := testOnly[d.key]
			switch {
			case isNamed && allowed:
				t.Errorf("%s: %s is named by non-test code: drop its testOnly entry", d.pos, d.key)
			case !isNamed && !allowed:
				t.Errorf("%s: %s is named by no non-test file: delete it, or give it a shipped caller", d.pos, d.key)
			}
			declared[d.key] = true
		}
		for key := range testOnly {
			if !declared[key] {
				t.Errorf("testOnly names %s, which is not declared", key)
			}
		}
	})

	t.Run("one socket writer", func(t *testing.T) {
		// Bytes reach a transport stream in one place, streamConn's flush, and
		// what may wait in its staging buffer is what IsDataFrame calls data.
		// A second writer could put a frame on the wire ahead of the staged
		// batch; a second predicate would be a second answer to which frames
		// may wait, and to which a Striped conn may reorder.
		for _, bad := range streamWrites(t, parse(t, "internal/transport")) {
			t.Errorf("internal/transport: %s", bad)
		}
	})

	t.Run("one patch trailer", func(t *testing.T) {
		// A delta patch is safe because of one check: the truncated SHA-256
		// of its target, written by Diff and verified by AppendApply before a
		// byte lands. The chunk hashes only choose what a patch names; a
		// second SHA-256 in the package is a second notion of "verified", and
		// an AppendApply that does not ask the trailer lets them decide.
		for _, bad := range patchTrailers(parse(t, "internal/delta")) {
			t.Errorf("internal/delta: %s", bad)
		}
	})

	t.Run("option budget", func(t *testing.T) {
		dirs := map[string]bool{}
		for key := range optionBudgets {
			dirs[path.Dir(key)] = true
		}
		for dir := range dirs {
			for _, bad := range overBudget(dir, parse(t, dir)) {
				t.Error(bad)
			}
		}
	})

	t.Run("line budget", func(t *testing.T) {
		for dir, budget := range lineBudgets {
			if n := parse(t, dir).lines; n > budget {
				t.Errorf("%s has %d non-test lines, budget %d", dir, n, budget)
			}
		}
		total := 0
		for _, dir := range packageDirs(t) {
			if dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
				total += parse(t, dir).lines
			}
		}
		if total > moduleLineBudget {
			t.Errorf("the module has %d non-test lines outside benchmark/, budget %d", total, moduleLineBudget)
		}
	})
}
