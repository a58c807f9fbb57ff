package sim

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	exps := Registry()
	if len(exps) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(exps))
	}
	seen := map[string]bool{}
	for i, e := range exps {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E5"); !ok {
		t.Fatal("E5 not found")
	}
	if _, ok := ByID("e5"); !ok {
		t.Fatal("lookup not case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID: "EX", Title: "demo", Claim: "c", Params: "p",
		Findings: []string{"f1"},
	}
	tab := NewTable("t", "col")
	tab.AddRow("v")
	rep.Tables = append(rep.Tables, tab)
	md := rep.Markdown()
	for _, want := range []string{"### EX", "*Claim:* c", "| col |", "- f1"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	text := rep.Text()
	for _, want := range []string{"=== EX", "Claim: c", "col", "* f1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
}

// runQuick runs an experiment in quick mode with a fixed seed.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := e.Run(Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id || len(rep.Tables) == 0 {
		t.Fatalf("%s produced malformed report", id)
	}
	return rep
}

// successFraction parses a "k/n" success cell.
func successFraction(t *testing.T, cell string) float64 {
	t.Helper()
	parts := strings.Split(cell, "/")
	if len(parts) != 2 {
		t.Fatalf("cell %q is not k/n", cell)
	}
	k, err := strconv.Atoi(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	return float64(k) / float64(n)
}

func TestE1QuickSucceeds(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E1")
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if f := successFraction(t, tab.Cell(i, 1)); f < 0.75 {
			t.Fatalf("row %d success %v too low (in-regime w.h.p. claim)", i, f)
		}
	}
}

func TestE2QuickSucceeds(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E2")
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if f := successFraction(t, tab.Cell(i, 1)); f < 0.75 {
			t.Fatalf("k=%s success %v too low", tab.Cell(i, 0), f)
		}
	}
}

func TestE3QuickShapes(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E3")
	if len(rep.Tables) != 2 {
		t.Fatalf("%d tables", len(rep.Tables))
	}
	// The scaling table's success should be high in-regime.
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if f := successFraction(t, tab.Cell(i, 2)); f < 0.75 {
			t.Fatalf("ε=%s success %v too low", tab.Cell(i, 0), f)
		}
	}
}

func TestE4QuickVerdicts(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E4")
	for _, f := range rep.Findings {
		if strings.Contains(f, "false") {
			t.Fatalf("E4 verdict failed: %s", f)
		}
	}
}

func TestE5QuickReachesConsensus(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E5")
	for _, f := range rep.Findings {
		if strings.Contains(f, "false") {
			t.Fatalf("E5 verdict failed: %s", f)
		}
	}
}

func TestE6QuickThresholdDirection(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E6")
	// Success at the largest |S| multiplier should be at least that at
	// the smallest.
	tab := rep.Tables[0]
	first := successFraction(t, tab.Cell(0, 2))
	last := successFraction(t, tab.Cell(tab.NumRows()-1, 2))
	if last < first-0.2 {
		t.Fatalf("success did not improve with |S|: %v -> %v", first, last)
	}
	if last < 0.75 {
		t.Fatalf("success %v too low at the largest |S|", last)
	}
}

func TestE7QuickVerdicts(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E7")
	// Table 1: uniform rows m.p. = true, cycle rows m.p. = false for
	// small ε.
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		name := tab.Cell(i, 0)
		verdict := tab.Cell(i, 2)
		if strings.HasPrefix(name, "uniform") && verdict != "true" {
			t.Fatalf("%s verdict %s", name, verdict)
		}
		if strings.HasPrefix(name, "dominant-cycle(ε=0.05)") && verdict != "false" {
			t.Fatalf("%s verdict %s", name, verdict)
		}
	}
	// Table 2: zero contradictions.
	if got := rep.Tables[1].Cell(0, 3); got != "0" {
		t.Fatalf("Eq.18 contradictions: %s", got)
	}
	// Table 3: uniform succeeds, cycle fails.
	t3 := rep.Tables[2]
	if f := successFraction(t, t3.Cell(0, 1)); f < 0.75 {
		t.Fatalf("uniform channel success %v", f)
	}
	if f := successFraction(t, t3.Cell(1, 1)); f > 0.25 {
		t.Fatalf("cycle channel success %v — should fail", f)
	}
}

func TestE8QuickIndistinguishable(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E8")
	for _, f := range rep.Findings {
		if strings.Contains(f, "false") {
			t.Fatalf("E8 verdict failed: %s", f)
		}
	}
}

func TestE9QuickBoundsHold(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E9")
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 7) != "true" {
			t.Fatalf("bound fails at row %d: k=%s ℓ=%s δ=%s",
				i, tab.Cell(i, 0), tab.Cell(i, 1), tab.Cell(i, 2))
		}
	}
}

func TestE10QuickProtocolBeatsBaselines(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E10")
	for _, tab := range rep.Tables {
		// Row 0 is the paper's protocol.
		ours := successFraction(t, tab.Cell(0, 1))
		if ours < 0.5 {
			t.Fatalf("%s: protocol success %v", tab.Title, ours)
		}
		for i := 1; i < tab.NumRows(); i++ {
			baseline := successFraction(t, tab.Cell(i, 1))
			if baseline > ours {
				t.Fatalf("%s: baseline %s (%v) beat the protocol (%v)",
					tab.Title, tab.Cell(i, 0), baseline, ours)
			}
		}
	}
}

func TestE11QuickMemorySmall(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E11")
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		bits, err := strconv.ParseFloat(tab.Cell(i, 3), 64)
		if err != nil {
			t.Fatal(err)
		}
		if bits < 1 || bits > 16 {
			t.Fatalf("bits per counter = %v (row %d): not double-logarithmic", bits, i)
		}
	}
}

func TestE12QuickParity(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E12")
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 5) != "true" || tab.Cell(i, 6) != "true" {
			t.Fatalf("parity fails at row %d", i)
		}
	}
}

func TestE13QuickBoundHolds(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E13")
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 4) != "true" {
			t.Fatalf("Lemma-16 bound fails at θ=%s", tab.Cell(i, 0))
		}
	}
}

func TestE14QuickIdentities(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E14")
	if got := rep.Tables[1].Cell(0, 3); got != "true" {
		t.Fatalf("Lemma-13 sandwich: %s", got)
	}
	if rep.Tables[2].Cell(0, 0) != "0" || rep.Tables[2].Cell(0, 1) != "0" {
		t.Fatal("Lemma-15 monotonicity violations")
	}
}

func TestE15QuickDefaultsWin(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E15")
	tab := rep.Tables[0]
	// Find the shipped default row (c=5, extra=2): success must be
	// at least as high as the weakest ablation cell and near-perfect.
	var defaultSucc float64 = -1
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 0) == "5.00" && tab.Cell(i, 1) == "2" {
			defaultSucc = successFraction(t, tab.Cell(i, 3))
		}
	}
	if defaultSucc < 0 {
		t.Fatal("default cell missing from ablation table")
	}
	if defaultSucc < 0.75 {
		t.Fatalf("default configuration success %v", defaultSucc)
	}
}

func TestE16QuickControlRowSucceeds(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E16")
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 1) == "0.00" { // constant-k control rows
			if f := successFraction(t, tab.Cell(i, 3)); f < 0.5 {
				t.Fatalf("constant-k control row %d success %v", i, f)
			}
		}
	}
}

func TestE17QuickBudgetCollapse(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E17")
	tab := rep.Tables[0]
	small := successFraction(t, tab.Cell(0, 2))
	full := successFraction(t, tab.Cell(tab.NumRows()-1, 2))
	if full < 0.75 {
		t.Fatalf("full budget success %v", full)
	}
	if small > full {
		t.Fatalf("starved budget (%v) outperformed the full budget (%v)", small, full)
	}
}

func TestE18QuickJitterTolerance(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E18")
	tab := rep.Tables[0]
	// The zero-jitter row must succeed.
	if f := successFraction(t, tab.Cell(0, 2)); f < 0.75 {
		t.Fatalf("zero-jitter success %v", f)
	}
}

func TestE19QuickFaultTolerance(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E19")
	tab := rep.Tables[0]
	// F=0 row: fraction 1.0.
	if got := tab.Cell(0, 3); got != "1.000" {
		t.Fatalf("adversary-free fraction = %s", got)
	}
	// Light corruption (0.05·F*) must keep the plurality.
	if f := successFraction(t, tab.Cell(1, 5)); f < 0.75 {
		t.Fatalf("plurality lost at 0.05·F*: %v", f)
	}
}

func TestE20QuickCensusEquivalenceAndScale(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E20")
	// Table 1: every chi-square verdict must stay indistinguishable.
	tab := rep.Tables[0]
	for i := 0; i < tab.NumRows(); i++ {
		if v := tab.Cell(i, 3); v != "indistinguishable" {
			t.Fatalf("census-vs-P %s/%s verdict %q", tab.Cell(i, 0), tab.Cell(i, 1), v)
		}
	}
	// Scale findings: the n=10⁹-phase-vs-batch-phase comparison must
	// pass and the sweep must elect the correct plurality.
	for _, f := range rep.Findings {
		if strings.Contains(f, "FAIL") || strings.Contains(f, "correct: false") {
			t.Fatalf("E20 verdict failed: %s", f)
		}
	}
}

func TestE21QuickPhaseDiagram(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E21")
	if len(rep.Tables) != 3 {
		t.Fatalf("%d tables, want 2 heatmaps + 1 bisection", len(rep.Tables))
	}
	// Every LP-certified heatmap cell must have succeeded and the LP
	// boundary must sit inside the bisection's critical band — the
	// acceptance criteria, asserted from the findings verdicts.
	for _, f := range rep.Findings {
		if strings.Contains(f, "FAIL") {
			t.Fatalf("E21 verdict failed: %s", f)
		}
	}
	// The heatmaps themselves: an "mp" cell may never show a sub-1/2
	// success rate.
	for _, tab := range rep.Tables[:2] {
		for i := 0; i < tab.NumRows(); i++ {
			for j := 1; j < 6; j++ {
				cell := tab.Cell(i, j)
				if strings.HasSuffix(cell, "mp") {
					rate, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
					if err != nil {
						t.Fatal(err)
					}
					if rate < 0.5 {
						t.Fatalf("%s: certified cell %q failed", tab.Title, cell)
					}
				}
			}
		}
	}
}

func TestE22QuickLogLaw(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "E22")
	tab := rep.Tables[0]
	// T(n) must be monotone in n and every point must succeed.
	prev := -1.0
	for i := 0; i < tab.NumRows(); i++ {
		mean, err := strconv.ParseFloat(tab.Cell(i, 1), 64)
		if err != nil {
			t.Fatal(err)
		}
		if mean <= prev {
			t.Fatalf("T(n) not increasing at row %d: %v after %v", i, mean, prev)
		}
		prev = mean
		if succ, _ := strconv.ParseFloat(tab.Cell(i, 2), 64); succ < 0.75 {
			t.Fatalf("row %d success %v", i, succ)
		}
	}
	// The fitted slope must be positive with a tight R² (rendered in
	// the finding as R²=0.xxxx).
	if !strings.Contains(rep.Findings[0], "R²=0.9") {
		t.Fatalf("log-law fit not tight: %s", rep.Findings[0])
	}
}
