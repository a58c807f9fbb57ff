package analyzers

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive names.
const (
	directivePrefix = "//nrlint:"
	// DeterministicDirective marks a package as bound by the
	// bit-identical-results contract; the determinism, obswrite,
	// overflow and rngfork passes apply only inside such packages.
	DeterministicDirective = "//nrlint:deterministic"
	allowDirective         = "//nrlint:allow"
)

// HasDeterministicDirective reports whether any file of the package
// declares //nrlint:deterministic (conventionally right above the
// package clause of the package's doc file).
func HasDeterministicDirective(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == DeterministicDirective {
					return true
				}
			}
		}
	}
	return false
}

// An allowMark is one parsed //nrlint:allow directive.
type allowMark struct {
	pos       token.Pos
	analyzers []string
	reason    string
	used      bool
}

// Suppressor filters diagnostics against the package's
// //nrlint:allow directives and converts policy violations (bare
// suppressions, unknown analyzer names) into diagnostics of their
// own, so `make lint` fails on unexplained or mistyped allows.
type Suppressor struct {
	fset  *token.FileSet
	marks map[string]map[int][]*allowMark // file → line → directives
}

// NewSuppressor scans the files' comments for allow directives.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{fset: fset, marks: map[string]map[int][]*allowMark{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, allowDirective)
				mark := &allowMark{pos: c.Pos()}
				if i := strings.Index(rest, "--"); i >= 0 {
					mark.reason = strings.TrimSpace(rest[i+2:])
					rest = rest[:i]
				}
				for _, name := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					mark.analyzers = append(mark.analyzers, name)
				}
				p := fset.Position(c.Pos())
				if s.marks[p.Filename] == nil {
					s.marks[p.Filename] = map[int][]*allowMark{}
				}
				// A directive covers its own line (trailing comment)
				// and the next line (standalone comment above the
				// flagged statement).
				s.marks[p.Filename][p.Line] = append(s.marks[p.Filename][p.Line], mark)
				s.marks[p.Filename][p.Line+1] = append(s.marks[p.Filename][p.Line+1], mark)
			}
		}
	}
	return s
}

// Filter drops diagnostics covered by a justified allow directive and
// appends policy diagnostics for bare suppressions (no `-- reason`),
// unknown analyzer names, and stale directives: a justified allow
// whose analyzers all ran (per active) yet suppressed nothing is dead
// policy — the code it excused was fixed or deleted, and keeping the
// directive would silently swallow the next genuine finding on that
// line. Staleness is only judged against analyzers that actually ran
// this invocation (active), so `-run determinism` cannot declare an
// overflow allow stale.
func (s *Suppressor) Filter(diags []Diagnostic, known, active func(string) bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		p := s.fset.Position(d.Pos)
		suppressed := false
		for _, mark := range s.marks[p.Filename][p.Line] {
			for _, name := range mark.analyzers {
				if name == d.Analyzer {
					mark.used = true
					if mark.reason != "" {
						suppressed = true
					}
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	var policy []Diagnostic
	seen := map[*allowMark]bool{}
	for _, byLine := range s.marks {
		for _, marks := range byLine {
			for _, mark := range marks {
				if seen[mark] {
					continue
				}
				seen[mark] = true
				if mark.reason == "" {
					policy = append(policy, Diagnostic{Pos: mark.pos, Analyzer: "nrlint",
						Message: "bare suppression: //nrlint:allow needs a justification (`//nrlint:allow <analyzer> -- <reason>`)"})
				}
				if len(mark.analyzers) == 0 {
					policy = append(policy, Diagnostic{Pos: mark.pos, Analyzer: "nrlint",
						Message: "//nrlint:allow names no analyzer"})
				}
				allKnownActive := len(mark.analyzers) > 0
				for _, name := range mark.analyzers {
					if !known(name) {
						policy = append(policy, Diagnostic{Pos: mark.pos, Analyzer: "nrlint",
							Message: "//nrlint:allow names unknown analyzer " + name})
					}
					if !known(name) || !active(name) {
						allKnownActive = false
					}
				}
				if mark.reason != "" && allKnownActive && !mark.used {
					policy = append(policy, Diagnostic{Pos: mark.pos, Analyzer: "nrlint",
						Message: "stale suppression: //nrlint:allow " + strings.Join(mark.analyzers, ",") + " matches no finding on its line; the code it excused is gone — delete the directive so it cannot mask a future finding"})
				}
			}
		}
	}
	// The marks map iterates in random order; sort the policy findings
	// so output is stable run to run.
	sort.Slice(policy, func(i, j int) bool {
		if policy[i].Pos != policy[j].Pos {
			return policy[i].Pos < policy[j].Pos
		}
		return policy[i].Message < policy[j].Message
	})
	return append(out, policy...)
}
