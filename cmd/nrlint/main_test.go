package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("nrlint -list exited %d: %s", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "budget determinism obswrite overflow rngfork"; got != want {
		t.Errorf("-list names %q, want %q:\n%s", got, want, out.String())
	}
}

// TestUnknownAnalyzerRejected also pins that the names of the passes
// folded into determinism and budget are gone from -run.
func TestUnknownAnalyzerRejected(t *testing.T) {
	for _, name := range []string{"nosuch", "detcall", "budgetflow"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-run", name}, &out, &errOut); code != 2 {
			t.Fatalf("nrlint -run %s exited %d, want 2", name, code)
		}
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-format", "xml"}, &out, &errOut); code != 2 {
		t.Fatalf("nrlint -format xml exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown -format") {
		t.Errorf("missing format error, got: %s", errOut.String())
	}
}

// TestNewAnalyzersRunnable pins that every listed pass is addressable
// via -run, not just present in -list.
func TestNewAnalyzersRunnable(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "checked")
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "budget,determinism,obswrite,overflow,rngfork", dir}, &out, &errOut); code != 0 {
		t.Fatalf("nrlint -run budget,determinism,obswrite,overflow,rngfork exited %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestFixtureFindingsFailTheRun drives the binary's pipeline end to
// end over the overflow fixture: the deliberate violations must
// surface as findings and exit status 1 — the acceptance property
// that reintroducing the PR-4 wrap pattern makes `make lint` fail.
func TestFixtureFindingsFailTheRun(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "analyzers", "testdata", "src", "overflow")
	var out, errOut bytes.Buffer
	code := run([]string{"-run", "overflow", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("nrlint on the overflow fixture exited %d, want 1 (stderr: %s)", code, errOut.String())
	}
	for _, frag := range []string{"narrowing conversion", "unchecked int64"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("findings missing %q:\n%s", frag, out.String())
		}
	}
}

// TestCleanPackagePasses runs the full suite over a package that must
// stay clean (internal/checked, the blessed guard helpers).
func TestCleanPackagePasses(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "checked")
	var out, errOut bytes.Buffer
	if code := run([]string{dir}, &out, &errOut); code != 0 {
		t.Fatalf("nrlint on internal/checked exited %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestMidDAGLoadFailureExitsTwo is the regression for the silent-skip
// bug class: a package that fails to type-check must abort the whole
// run with exit 2 — never exit 0/1 with its dependents analyzed
// against incomplete facts.
func TestMidDAGLoadFailureExitsTwo(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/brokenmod\n\ngo 1.24\n")
	// a is the dependency and it does not type-check.
	write("a/a.go", "package a\n\nfunc Broken() int { return undefinedIdent }\n")
	// b depends on a: facts for a can never be complete.
	write("b/b.go", "package b\n\nimport \"example.com/brokenmod/a\"\n\nfunc Use() int { return a.Broken() }\n")
	t.Chdir(root)
	var out, errOut bytes.Buffer
	code := run([]string{filepath.Join(root, "a"), filepath.Join(root, "b")}, &out, &errOut)
	if code != 2 {
		t.Fatalf("nrlint on a broken module exited %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "mid-DAG") {
		t.Errorf("stderr does not name the mid-DAG failure: %s", errOut.String())
	}
}

func TestJSONFormat(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "analyzers", "testdata", "src", "overflow")
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "overflow", "-format", "json", dir}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	var findings []finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-format json output is not a findings array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded")
	}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path not module-relative: %s", f.File)
		}
	}
}

// TestSARIFOutputValidates checks the emitted SARIF against the
// 2.1.0 structural rules GitHub's ingestion relies on — offline, via
// validateSARIF below, since the container has no network to fetch
// the JSON schema. Exercised twice: a run with findings (the overflow
// fixture) and a clean run (results must be [], not null).
func TestSARIFOutputValidates(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "analyzers", "testdata", "src", "overflow")
	clean := filepath.Join("..", "..", "internal", "checked")
	for _, tc := range []struct {
		name     string
		args     []string
		wantCode int
		wantMin  int
	}{
		{"findings", []string{"-run", "overflow", "-format", "sarif", fixture}, 1, 1},
		{"clean", []string{"-format", "sarif", clean}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.wantCode, errOut.String())
			}
			n, err := validateSARIF(out.Bytes())
			if err != nil {
				t.Fatalf("SARIF invalid: %v\n%s", err, out.String())
			}
			if n < tc.wantMin {
				t.Errorf("SARIF has %d results, want >= %d", n, tc.wantMin)
			}
		})
	}
}

// validateSARIF is the offline structural validator: it decodes the
// log generically (so it checks the emitted JSON, not our own Go
// types) and enforces the SARIF 2.1.0 invariants the upload pipeline
// depends on. Returns the number of results.
func validateSARIF(data []byte) (int, error) {
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex *int   `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&log); err != nil {
		return 0, fmt.Errorf("decode (unknown fields are errors, catching shape drift): %w", err)
	}
	if log.Version != "2.1.0" {
		return 0, fmt.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		return 0, fmt.Errorf("$schema = %q does not pin sarif-2.1.0", log.Schema)
	}
	if len(log.Runs) != 1 {
		return 0, fmt.Errorf("%d runs, want 1", len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name == "" {
		return 0, fmt.Errorf("tool.driver.name missing")
	}
	if len(r.Tool.Driver.Rules) == 0 {
		return 0, fmt.Errorf("no rules")
	}
	for i, rule := range r.Tool.Driver.Rules {
		if rule.ID == "" {
			return 0, fmt.Errorf("rules[%d] has empty id", i)
		}
		if rule.ShortDescription.Text == "" {
			return 0, fmt.Errorf("rule %s has no shortDescription.text", rule.ID)
		}
	}
	// results must be present even when empty ([] not null): GitHub's
	// ingestion treats a missing array as malformed.
	if !bytes.Contains(data, []byte(`"results"`)) {
		return 0, fmt.Errorf("results array missing entirely")
	}
	for i, res := range r.Results {
		if res.Message.Text == "" {
			return 0, fmt.Errorf("results[%d] has no message.text", i)
		}
		if res.RuleIndex == nil || *res.RuleIndex < 0 || *res.RuleIndex >= len(r.Tool.Driver.Rules) {
			return 0, fmt.Errorf("results[%d] ruleIndex out of range", i)
		}
		if rid := r.Tool.Driver.Rules[*res.RuleIndex].ID; rid != res.RuleID {
			return 0, fmt.Errorf("results[%d] ruleId %q != rules[%d].id %q", i, res.RuleID, *res.RuleIndex, rid)
		}
		if len(res.Locations) == 0 {
			return 0, fmt.Errorf("results[%d] has no locations", i)
		}
		for _, loc := range res.Locations {
			uri := loc.PhysicalLocation.ArtifactLocation.URI
			if uri == "" || strings.HasPrefix(uri, "/") || strings.Contains(uri, `\`) {
				return 0, fmt.Errorf("results[%d] uri %q must be relative with forward slashes", i, uri)
			}
			if loc.PhysicalLocation.Region.StartLine < 1 {
				return 0, fmt.Errorf("results[%d] startLine %d < 1", i, loc.PhysicalLocation.Region.StartLine)
			}
		}
	}
	return len(r.Results), nil
}

// BenchmarkNrlintModule times one full-module nrlint run — all five
// analyzers, bottom-up facts, suppression — the cost `make lint` and
// CI pay. Recorded as nrlint_module_secs in BENCH_*.json.
func BenchmarkNrlintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out, errOut bytes.Buffer
		if code := run(nil, &out, &errOut); code != 0 {
			b.Fatalf("nrlint exited %d:\n%s%s", code, out.String(), errOut.String())
		}
	}
}
