package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Dir   string
	Path  string // import path (module path + relative dir)
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks package directories of one module.
// It uses the standard library's source importer for dependencies
// (stdlib and module-internal alike): this environment has no module
// cache or network, so go/packages + export data are not an option.
// One Loader shares a FileSet and importer across LoadDir calls, so
// dependency type-checking is amortized over the whole run.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet
	imp        types.ImporterFrom
}

// NewLoader builds a Loader rooted at the module containing dir (the
// nearest ancestor with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The stdlib source importer resolves module-internal import
	// paths through go/build, which needs a working directory inside
	// the module to consult the go command. Dir is process-wide
	// state, but nrlint and its tests are short-lived single-module
	// processes.
	build.Default.Dir = root
	fset := token.NewFileSet()
	imp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analyzers: source importer lacks ImportFrom")
	}
	return &Loader{ModuleRoot: root, ModulePath: modPath, Fset: fset, imp: imp}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analyzers: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analyzers: no go.mod above %s", abs)
		}
	}
}

// LoadDir parses and type-checks the non-test Go files of one
// directory. Test files are excluded: the contracts nrlint enforces
// bind production code; tests exercise nondeterminism deliberately.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analyzers: no non-test Go files in %s", abs)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	path := l.importPath(abs)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analyzers: type-check %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-check %s: %w", path, err)
	}
	return &Package{Dir: abs, Path: path, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// importPath derives the module-relative import path of abs.
func (l *Loader) importPath(abs string) string {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// PackageDirs walks root and returns every directory holding at least
// one non-test Go file, skipping testdata, hidden and vendor trees —
// the set `nrlint ./...` lints.
func PackageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" || name == "profiles") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// A PackageResult pairs one analyzed package with its raw
// (unsuppressed) diagnostics, sorted by position.
type PackageResult struct {
	Pkg   *Package
	Diags []Diagnostic
}

// RunDirs analyzes the given package directories bottom-up over their
// import DAG: dependencies are loaded and fact-computed before their
// dependents, every analyzer's Facts hook runs before any Run hook of
// the same package, and one in-memory fact store serves the whole
// run. Results are returned sorted by import path regardless of
// analysis order, so output is stable. A package that fails to load
// or type-check aborts the whole run with an error naming it — its
// dependents' facts would silently be incomplete otherwise.
func (l *Loader) RunDirs(dirs []string, as []*Analyzer) ([]PackageResult, error) {
	ordered, err := l.sortDirsByImports(dirs)
	if err != nil {
		return nil, err
	}
	facts := NewFacts()
	var results []PackageResult
	for _, dir := range ordered {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("analyzers: loading %s mid-DAG (dependent packages would see incomplete facts): %w", dir, err)
		}
		var diags []Diagnostic
		newPass := func(a *Analyzer) *Pass {
			return &Pass{
				Analyzer: a,
				Fset:     l.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Facts:    facts,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
		}
		for _, a := range as {
			if a.Facts == nil {
				continue
			}
			if err := a.Facts(newPass(a)); err != nil {
				return nil, fmt.Errorf("analyzers: %s facts on %s: %w", a.Name, pkg.Path, err)
			}
		}
		for _, a := range as {
			if a.Run == nil {
				continue
			}
			if err := a.Run(newPass(a)); err != nil {
				return nil, fmt.Errorf("analyzers: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		sort.Slice(diags, func(i, j int) bool {
			if diags[i].Pos != diags[j].Pos {
				return diags[i].Pos < diags[j].Pos
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
		results = append(results, PackageResult{Pkg: pkg, Diags: diags})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Pkg.Path < results[j].Pkg.Path })
	return results, nil
}

// dirImports returns the import paths of dir's non-test Go files
// (parsed imports-only, so ordering the DAG costs a fraction of type
// checking).
func (l *Loader) dirImports(dir string) ([]string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(abs, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				seen[path] = true
			}
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, nil
}

// sortDirsByImports topologically orders dirs so that every directory
// precedes the directories that import it (edges restricted to the
// given set; external imports are irrelevant to fact availability
// within the set). Ties break by import path, so the order — and
// therefore fact content and diagnostics — is deterministic.
func (l *Loader) sortDirsByImports(dirs []string) ([]string, error) {
	type node struct {
		dir  string
		path string
		deps []string // import paths within the set
	}
	byPath := map[string]*node{}
	nodes := make([]*node, 0, len(dirs))
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		n := &node{dir: dir, path: l.importPath(abs)}
		byPath[n.path] = n
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		imps, err := l.dirImports(n.dir)
		if err != nil {
			return nil, fmt.Errorf("analyzers: scanning imports of %s: %w", n.dir, err)
		}
		for _, p := range imps {
			if _, ok := byPath[p]; ok && p != n.path {
				n.deps = append(n.deps, p)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].path < nodes[j].path })
	order := make([]string, 0, len(nodes))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(n *node) error
	visit = func(n *node) error {
		switch state[n.path] {
		case 1:
			return fmt.Errorf("analyzers: import cycle through %s", n.path)
		case 2:
			return nil
		}
		state[n.path] = 1
		for _, dep := range n.deps {
			if err := visit(byPath[dep]); err != nil {
				return err
			}
		}
		state[n.path] = 2
		order = append(order, n.dir)
		return nil
	}
	for _, n := range nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}
