// nrlint is the repo's project-specific multichecker: it runs the
// internal/analyzers suite (budget, determinism, obswrite, overflow)
// over every package of the module — bottom-up over the import DAG,
// so the determinism and budget passes see dependency summaries —
// and fails when any finding survives the //nrlint:allow suppression
// filter, including policy findings for bare (unjustified) or stale
// suppressions. `make lint` and CI run it; see DESIGN.md "Statically
// enforced contracts".
//
// Usage:
//
//	nrlint [-run determinism,overflow] [-format text|json|sarif] [-list] [-v] [dir ...]
//
// With no directories it lints the whole module containing the
// working directory. Exit status: 0 clean, 1 findings, 2 load or
// internal error (a package failing to load mid-DAG is an internal
// error, not a silent skip: its dependents' facts would be
// incomplete).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/gossipkit/noisyrumor/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A finding is one surviving diagnostic, resolved to a position and
// the module-relative file path — the shape all three output formats
// consume.
type finding struct {
	File     string `json:"file"` // module-relative, forward slashes
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("nrlint", flag.ContinueOnError)
	runList := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	verbose := fs.Bool("v", false, "report per-package progress and suppressed-finding counts")
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(errOut, "nrlint: unknown -format %q (want text, json or sarif)\n", *format)
		return 2
	}
	suite := analyzers.All()
	if *runList != "" {
		suite = nil
		for _, name := range strings.Split(*runList, ",") {
			a := analyzers.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(errOut, "nrlint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			suite = append(suite, a)
		}
	}
	active := map[string]bool{}
	for _, a := range suite {
		active[a.Name] = true
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errOut, "nrlint:", err)
		return 2
	}
	loader, err := analyzers.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(errOut, "nrlint:", err)
		return 2
	}
	dirs := fs.Args()
	if len(dirs) == 0 || (len(dirs) == 1 && (dirs[0] == "./..." || dirs[0] == "...")) {
		dirs, err = analyzers.PackageDirs(loader.ModuleRoot)
		if err != nil {
			fmt.Fprintln(errOut, "nrlint:", err)
			return 2
		}
	}

	results, err := loader.RunDirs(dirs, suite)
	if err != nil {
		fmt.Fprintln(errOut, "nrlint:", err)
		return 2
	}
	var findings []finding
	for _, res := range results {
		raw := len(res.Diags)
		diags := analyzers.NewSuppressor(loader.Fset, res.Pkg.Files).Filter(res.Diags,
			func(name string) bool { return analyzers.ByName(name) != nil },
			func(name string) bool { return active[name] })
		if *verbose {
			fmt.Fprintf(errOut, "nrlint: %s: %d finding(s), %d suppressed\n", res.Pkg.Path, len(diags), raw-len(diags))
		}
		for _, d := range diags {
			p := loader.Fset.Position(d.Pos)
			rel, err := filepath.Rel(loader.ModuleRoot, p.Filename)
			if err != nil {
				rel = p.Filename
			}
			findings = append(findings, finding{
				File:     filepath.ToSlash(rel),
				Line:     p.Line,
				Column:   p.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(errOut, "nrlint:", err)
			return 2
		}
	case "sarif":
		if err := writeSARIF(out, suite, findings); err != nil {
			fmt.Fprintln(errOut, "nrlint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(out, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(errOut, "nrlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
