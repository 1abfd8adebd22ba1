package doccheck

import (
	"os"
	"path/filepath"
	"testing"
)

var repoRoot = filepath.Join("..", "..", "..")

// TestWireFrameCoverage is the wire-spec gate CI runs: every Msg*
// frame constant in the transport must be specified in docs/WIRE.md, so the
// wire spec cannot silently fall behind the protocol.
func TestWireFrameCoverage(t *testing.T) {
	findings, err := WireFrameCoverage(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestMarkdownLinks verifies every relative link in the repo's
// documentation set points at a file that exists.
func TestMarkdownLinks(t *testing.T) {
	files, err := DocFiles(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("doc file set suspiciously small: %v", files)
	}
	findings, err := CheckLinks(repoRoot, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestCheckLinksDetects pins the checker against a synthetic tree: good
// relative links, anchors, and absolute URLs pass; a dangling target fails.
func TestCheckLinksDetects(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "docs", "REAL.md"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	md := `[ok](docs/REAL.md) [anchored](docs/REAL.md#sec) [web](https://example.com)
[broken](docs/MISSING.md) [self](#local)`
	if err := os.WriteFile(filepath.Join(dir, "index.md"), []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := CheckLinks(dir, []string{"index.md"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the broken link", findings)
	}
}

// TestWireCoverageDetects pins the frame scanner: it must actually find the
// transport's constants (a regex rot here would silently pass everything).
func TestWireCoverageDetects(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(repoRoot, "internal", "transport", "message.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := msgConst.FindAllStringSubmatch(string(src), -1)
	if len(names) < 20 {
		t.Fatalf("scanner found only %d Msg* constants", len(names))
	}
	found := map[string]bool{}
	for _, m := range names {
		found[m[1]] = true
	}
	for _, want := range []string{"MsgHello", "MsgHashAdvert", "MsgHashWant", "MsgBlockRef"} {
		if !found[want] {
			t.Errorf("scanner missed %s", want)
		}
	}
}

// TestDeclRefs resolves every backticked package reference in the README,
// the architecture and wire docs and the library overview against the
// declarations of the package it names.
func TestDeclRefs(t *testing.T) {
	findings, checked, err := DeclRefs(repoRoot, DeclFiles)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("only %d references checked: the scanner has rotted", checked)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestKnobTable holds README's engine knob table to core.Config: every
// exported field is listed, and every listed field exists.
func TestKnobTable(t *testing.T) {
	findings, err := KnobTable(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDocChecksDetect pins both checks against a synthetic tree: a
// reference to a missing declaration, a stale table row and an unlisted
// field are found; resolvable references, foreign packages and file names
// pass.
func TestDocChecksDetect(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/core/config.go", "package core\n\ntype Config struct {\n\tStreams int\n\tWorkers int\n\tclock int\n}\n\nfunc (Config) Check() {}\n")
	write("internal/blockdev/bcache/bcache.go", "package bcache\n\nconst DefaultMaxBlocks = 1\n\ntype Cache struct{ Stats }\n\ntype Stats struct{}\n")
	write("README.md", "`core.Config.Streams` `core.Config.Check()` `bcache.DefaultMaxBlocks` `bcache.Cache.Stats`\n"+
		"`time.Now` `delta.go` `core.Config.Gone` `bcache.SetBlocks`\n\n"+
		knobHeading+"\n\n| Field | Effect |\n|---|---|\n| `Streams`, `Budget` | x |\n\nafter: `Workers`\n")
	findings, checked, err := DeclRefs(dir, []string{"README.md"})
	if err != nil {
		t.Fatal(err)
	}
	if checked != 7 || len(findings) != 2 {
		t.Fatalf("checked %d references, findings %v; want 7 checked and the two unresolved", checked, findings)
	}
	findings, err = KnobTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("knob table findings %v, want Workers unlisted and Budget undeclared", findings)
	}
}
