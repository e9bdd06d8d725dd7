package analyze

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFixtures runs each analyzer over its testdata tree and compares
// the diagnostics against `// want "substring"` expectations: every
// want line must produce a diagnostic containing the substring, and
// every diagnostic must be wanted. Lines relying on //lvlint:ignore
// carry no want comment — a diagnostic there fails the test, proving
// the suppression path.
func TestFixtures(t *testing.T) {
	loader := NewLoader("test")
	pkgs, err := loader.LoadTree("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			var mine []*Package
			for _, p := range pkgs {
				if strings.HasPrefix(p.Path, "test/"+a.Name+"/") {
					mine = append(mine, p)
				}
			}
			if len(mine) == 0 {
				t.Fatalf("no fixture packages under testdata/%s", a.Name)
			}
			diags := Run(mine, []*Analyzer{a}, "test")

			type key struct {
				file string
				line int
			}
			wants := map[key][]string{}
			for _, p := range mine {
				for _, f := range p.Files {
					name := loader.Fset.Position(f.Pos()).Filename
					for line, substr := range wantComments(t, name) {
						wants[key{name, line}] = append(wants[key{name, line}], substr)
					}
				}
			}

			matched := map[key]map[string]bool{}
			for _, d := range diags {
				k := key{d.Position.Filename, d.Position.Line}
				found := false
				for _, w := range wants[k] {
					if strings.Contains(d.Message, w) {
						if matched[k] == nil {
							matched[k] = map[string]bool{}
						}
						matched[k][w] = true
						found = true
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for k, subs := range wants {
				for _, w := range subs {
					if !matched[k][w] {
						t.Errorf("%s:%d: expected a diagnostic containing %q, got none", k.file, k.line, w)
					}
				}
			}
		})
	}
}

var wantRe = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

// wantComments returns line -> expected-substring for one fixture file.
func wantComments(t *testing.T, path string) map[int]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]string{}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s, err := strconv.Unquote(m[1])
		if err != nil {
			t.Fatalf("%s:%d: bad want string %s", path, i+1, m[1])
		}
		out[i+1] = s
	}
	return out
}

// TestUnitOf pins the suffix-boundary rules the unitcheck analyzer
// depends on.
func TestUnitOf(t *testing.T) {
	cases := []struct {
		name string
		unit string // "" = no unit
	}{
		{"VoltageMV", "mV"},
		{"voltageMV", "mV"},
		{"mv", "mV"},
		{"vccminMV", "mV"},
		{"supplyVolts", "V"},
		{"FreqMHz", "MHz"},
		{"freqGHz", "GHz"},
		{"FO4DelayPS", "ps"},
		{"latency_ns", "ns"},
		{"EnergyPJ", "pJ"},
		{"radius", ""},     // lowercase "us" embedded in a word
		{"bonus", ""},      // ditto
		{"campus", ""},     // ditto
		{"DMV", ""},        // uppercase run, no camel boundary
		{"v", ""},          // bare single letters carry no unit
		{"chaos", ""},      // no recognized suffix
		{"TotalPages", ""}, // "es" is not a suffix; sanity
	}
	for _, c := range cases {
		u, ok := unitOf(c.name)
		got := ""
		if ok {
			got = u.name
		}
		if got != c.unit {
			t.Errorf("unitOf(%q) = %q, want %q", c.name, got, c.unit)
		}
	}
}

// TestByName covers selection and the unknown-check error.
func TestByName(t *testing.T) {
	as, err := ByName("detflow, nopanic")
	if err != nil || len(as) != 2 || as[0].Name != "detflow" || as[1].Name != "nopanic" {
		t.Fatalf("ByName: %v, %v", as, err)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Fatal("expected error for unknown check")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("empty list should select all: %v, %v", all, err)
	}
}

// TestLoaderRejectsOutsideImports pins the loader error for a package
// importing an unregistered module path.
func TestLoaderRejectsOutsideImports(t *testing.T) {
	dir := t.TempDir()
	src := "package a\n\nimport _ \"test/missing\"\n"
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("test")
	if _, err := loader.LoadTree(dir); err == nil {
		t.Fatal("expected load error for import outside the tree")
	}
}

// TestLoaderSkipsNestedModules pins that a directory with its own
// go.mod is a separate module: neither the loader nor the lint cache's
// input set descends into it, matching `go build ./...`. The nested
// package imports a path outside the tree, so loading it would fail.
func TestLoaderSkipsNestedModules(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":           "module test\n",
		"a.go":             "package a\n",
		"sub/b.go":         "package sub\n",
		"nested/go.mod":    "module nested\n",
		"nested/n.go":      "package nested\n\nimport _ \"nested/missing\"\n",
		"nested/deep/d.go": "package deep\n",
		"sub/inner/go.mod": "module inner\n",
		"sub/inner/i.go":   "package inner\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := NewLoader("test").LoadTree(dir)
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if want := []string{"test", "test/sub"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("loaded %v, want %v", got, want)
	}
	inputs, err := cacheInputs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.go", "go.mod", "sub/b.go"}; fmt.Sprint(inputs) != fmt.Sprint(want) {
		t.Errorf("cache inputs %v, want %v", inputs, want)
	}
}

// TestSuppressSameLineAndAbove pins both comment placements.
func TestSuppressSameLineAndAbove(t *testing.T) {
	mk := func(file string, line int, check string) Diagnostic {
		d := Diagnostic{Check: check}
		d.Position.Filename = file
		d.Position.Line = line
		return d
	}
	// Build a fake package with a parsed file containing ignores.
	dir := t.TempDir()
	src := `package a

func f() {
	//lvlint:ignore foo above-line reason
	_ = 1
	_ = 2 //lvlint:ignore bar same-line reason
	//lvlint:ignore all blanket
	_ = 3
}
`
	path := filepath.Join(dir, "a.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("test")
	pkgs, err := loader.LoadTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := []Diagnostic{
		mk(path, 5, "foo"),   // suppressed by the comment above
		mk(path, 5, "other"), // different check: survives
		mk(path, 6, "bar"),   // suppressed by the trailing comment
		mk(path, 8, "baz"),   // suppressed by "all"
	}
	out := suppress(in, pkgs, loader.Fset)
	if len(out) != 1 || out[0].Check != "other" {
		t.Fatalf("suppress kept %v, want only the 'other' diagnostic", out)
	}
}

// Ensure the String form stays stable for CLI output.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "detflow", Message: "m"}
	d.Position.Filename = "f.go"
	d.Position.Line = 3
	d.Position.Column = 7
	if got, want := d.String(), "f.go:3:7: [detflow] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	_ = fmt.Sprintf("%v", d)
}

// TestFixRoundTrip applies every suggested fix in the fixapply
// fixtures and verifies the result per analyzer: zero findings on
// re-analysis, and output that gofmt leaves unchanged. The eventflow
// leg additionally proves the rewrite converges — its collect loop
// must not itself be reported as a map range.
func TestFixRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		src      string // fixture source under testdata/fixapply
		dest     string // relative path inside the temp module
		analyzer *Analyzer
	}{
		{name: "detflow", src: "a/a.go", dest: "a.go", analyzer: Detflow},
		{name: "eventflow", src: "event/event.go", dest: "event/event.go", analyzer: Eventflow},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "fixapply", filepath.FromSlash(tc.src)))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, filepath.FromSlash(tc.dest))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}

			loader := NewLoader("test")
			pkgs, err := loader.LoadTree(dir)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(pkgs, []*Analyzer{tc.analyzer}, "test")
			if len(diags) == 0 {
				t.Fatal("fixapply fixture produced no findings")
			}
			withFix := 0
			for _, d := range diags {
				withFix += len(d.Fixes)
			}
			if withFix == 0 {
				t.Fatal("fixapply findings carry no suggested fixes")
			}

			fixed, err := ApplyFixes(loader.Fset, diags)
			if err != nil {
				t.Fatal(err)
			}
			data, ok := fixed[path]
			if !ok {
				t.Fatalf("ApplyFixes touched %d files, none of them %s", len(fixed), path)
			}
			formatted, err := format.Source(data)
			if err != nil {
				t.Fatalf("fixed source does not format: %v", err)
			}
			if !bytes.Equal(formatted, data) {
				t.Errorf("fixed source is not gofmt-stable:\n%s", data)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			loader2 := NewLoader("test")
			pkgs2, err := loader2.LoadTree(dir)
			if err != nil {
				t.Fatalf("fixed source does not load: %v\n%s", err, data)
			}
			if after := Run(pkgs2, []*Analyzer{tc.analyzer}, "test"); len(after) != 0 {
				t.Errorf("findings survive -fix:\n%s", data)
				for _, d := range after {
					t.Errorf("  %s", d)
				}
			}
		})
	}
}
