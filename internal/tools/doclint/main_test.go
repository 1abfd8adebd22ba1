package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTargetPackagesDocumented is the in-tree half of the CI doc gate: the
// root package's documentation, the cluster orchestrator, the engine, the
// host daemon, the transport, the simulator, the dedup layer, and the block
// layer must have zero undocumented exported identifiers.
func TestTargetPackagesDocumented(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	for _, dir := range []string{
		".", "internal/cluster", "internal/core", "internal/hostd",
		"internal/transport", "internal/sim", "internal/dedup",
		"internal/delta", "internal/blockdev", "internal/blockdev/bcache",
		"internal/forecast",
	} {
		findings, err := LintDir(filepath.Join(root, filepath.FromSlash(dir)))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// TestLintDirDetects pins the checker's rules against a fixture package.
func TestLintDirDetects(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

const Bad = 1

// Grouped constants share the group comment.
const (
	GoodA = 1
	GoodB = 2
)

type AlsoBad struct{}

func (AlsoBad) Method() {}

// Documented is fine.
func Documented() {}

type hidden int

func (hidden) Fine() {}

var Inline = 3 // an inline comment also counts
`
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := LintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"package fixture has no package comment":            false,
		"exported const Bad has no doc comment":             false,
		"exported type AlsoBad has no doc comment":          false,
		"exported method AlsoBad.Method has no doc comment": false,
	}
	for _, f := range findings {
		matched := false
		for w := range want {
			if !want[w] && len(f) >= len(w) && f[len(f)-len(w):] == w {
				want[w] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for w, hit := range want {
		if !hit {
			t.Errorf("missing finding: %s", w)
		}
	}
}
