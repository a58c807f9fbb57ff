package analyzers

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is the one Loader the fixture tests share. Every
// fixture sits in this module, so the stdlib packages their imports
// pull in are type-checked from source once per test binary, not once
// per test.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// RunFixture is the analysistest-shaped harness: it loads the fixture
// package at dir (conventionally testdata/src/<analyzer>) together
// with any subpackages below it (helper packages for cross-package
// interprocedural cases), runs the given analyzers through the full
// driver pipeline — bottom-up fact propagation, then the
// //nrlint:allow suppression filter, so fixtures exercise accepted
// negative cases exactly as `make lint` would — and compares the
// surviving diagnostics against `// want "regexp"` annotations:
// every want must be matched by a diagnostic on its line, and every
// diagnostic must be matched by a want. Lines carrying a justified
// //nrlint:allow and no want are the fixtures' accepted negatives.
func RunFixture(t *testing.T, as []*Analyzer, dir string) {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := PackageDirs(dir)
	if err != nil {
		t.Fatalf("discovering fixture packages: %v", err)
	}
	results, err := loader.RunDirs(dirs, as)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	active := map[string]bool{}
	for _, a := range as {
		active[a.Name] = true
	}
	var diags []Diagnostic
	wants := map[string][]*want{}
	for _, res := range results {
		diags = append(diags, NewSuppressor(loader.Fset, res.Pkg.Files).Filter(
			res.Diags, knownAnalyzer, func(name string) bool { return active[name] })...)
		for key, ws := range parseWants(t, loader.Fset, res.Pkg) {
			wants[key] = append(wants[key], ws...)
		}
	}
	matched := map[*want]bool{}
	for _, d := range diags {
		p := loader.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		ok := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				matched[w] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic [%s] %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
			}
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`// want (.*)$`)
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts `// want "re" ["re" ...]` annotations per line.
func parseWants(t *testing.T, fset *token.FileSet, pkg *Package) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				args := wantArgRE.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", p.Filename, p.Line, c.Text)
				}
				for _, a := range args {
					pat := a[1] // backquoted form
					if pat == "" {
						pat = strings.ReplaceAll(a[2], `\"`, `"`)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", p.Filename, p.Line, err)
					}
					key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
					wants[key] = append(wants[key], &want{file: p.Filename, line: p.Line, re: re})
				}
			}
		}
	}
	return wants
}

func knownAnalyzer(name string) bool { return ByName(name) != nil }
