package archcheck

import (
	"bytes"
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
	"internal/cluster":  1596,
	"internal/core":     4809,
	"internal/forecast": 411,
	"internal/sim":      2448,
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
	paths, err := filepath.Glob(filepath.Join(repoRoot, dir, "*.go"))
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
// root, leaving out the separately built benchmark module.
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
		if rel == "benchmark" || rel != "." && strings.HasPrefix(d.Name(), ".") {
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
			case sel.Sel.Name == "NextExtent", qualified == "clock.NewRateLimiter", qualified == "dedup.WalkWant":
				t.Errorf("%s: hostd calls %s: a second copy of engine code", hostd.fset.Position(call.Pos()), qualified)
			}
		})
	})

	t.Run("hostd negotiates nothing the engine sees", func(t *testing.T) {
		// The destination engine follows compression, dedup and delta frames
		// and a resumable HELLO by itself, and MigrateOut hands the caller's
		// config to the engine untouched: a hostd that names these knobs, or
		// an announce that carries them, is a second negotiation.
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
						for _, knob := range []string{"compress", "resume", "delta"} {
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
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := conf.Check("bbmig/internal/core", core.fset, core.files, info)
	if err != nil {
		t.Fatal(err)
	}
	calls, frames := map[string]int{}, map[string]int{}
	spawns, queues := map[string]int{}, map[string]bool{}
	core.inspect(func(file string, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				calls[method(info, sel)]++
			}
		case *ast.KeyValueExpr: // Type: transport.Msg…, a frame built
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Type" {
				frames[msgName(n.Value)]++
			}
		case *ast.AssignStmt: // m.Type = transport.Msg…, likewise
			for i, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Type" && i < len(n.Rhs) {
					frames[msgName(n.Rhs[i])]++
				}
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
		// through one send path, which asks the base book for the form. None
		// may be missing either: a rule that counts nothing has rotted.
		for name, n := range map[string]int{
			"vm.VM.Suspend": calls["vm.VM.Suspend"], "vm.VM.Resume": calls["vm.VM.Resume"],
			"MsgResumed": frames["MsgResumed"], "MsgMemPage": frames["MsgMemPage"], "MsgMemPageDelta": frames["MsgMemPageDelta"],
		} {
			if n != 1 {
				t.Errorf("internal/core: %d places do %s, want exactly 1", n, name)
			}
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
		pools := map[string]bool{}
		for _, f := range core.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "newLanePool" {
							pools[funcName(fn)] = true
						}
					}
					return true
				})
			}
		}
		if want := map[string]bool{"transfer.sendExtents": true, "destRun.run": true, "SyncDest": true}; !reflect.DeepEqual(pools, want) {
			t.Errorf("internal/core: newLanePool called from %v, allowed %v", pools, want)
		}
	})

	t.Run("the policy decides what the engine cannot measure", func(t *testing.T) {
		// Stop conditions, the extent limit and its feedback, pacing: a
		// decision the engine or the transport can take from its own
		// measurements is not a Policy method.
		policy, ok := pkg.Scope().Lookup("Policy").Type().Underlying().(*types.Interface)
		if !ok {
			t.Fatal("internal/core: Policy is not an interface")
		}
		got := map[string]string{}
		for i := 0; i < policy.NumMethods(); i++ {
			m := policy.Method(i)
			got[m.Name()] = types.TypeString(m.Type(), types.RelativeTo(pkg))
		}
		want := map[string]string{
			"ContinuePreCopy": "func(st IterationStat) bool",
			"ExtentBlocks":    "func(configured int) int",
			"ObserveExtent":   "func(blocks int, wireBytes int64, d time.Duration)",
			"PrecopyRate":     "func(configured int64) int64",
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("internal/core: Policy methods %v, want %v", got, want)
		}
	})

	t.Run("core imports", func(t *testing.T) {
		// The engine sits on the substrates and nothing above them; the
		// policy files see no frames at all.
		allowed := map[string]bool{}
		for _, p := range []string{"bitmap", "blkback", "blockdev", "clock", "dedup", "delta", "metrics", "transport", "vm"} {
			allowed["bbmig/internal/"+p] = true
		}
		for _, f := range core.files {
			name := filepath.Base(core.fset.Position(f.Pos()).Filename)
			policyFile := name == "policy.go" || name == "budget.go"
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				inRepo := strings.HasPrefix(path, "bbmig/")
				if inRepo && !allowed[path] || policyFile && path == "bbmig/internal/transport" {
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

	t.Run("line budget", func(t *testing.T) {
		for dir, budget := range lineBudgets {
			if n := parse(t, dir).lines; n > budget {
				t.Errorf("%s has %d non-test lines, budget %d", dir, n, budget)
			}
		}
	})
}
