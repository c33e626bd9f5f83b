package exp

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Quick: true, Seed: 1}

// parsePct extracts the numeric value from a "12.3%" cell.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFig2(t *testing.T) {
	tab, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Max compute spread roughly two orders of magnitude; bw ~18x.
	last := tab.Rows[len(tab.Rows)-1]
	if v := parseF(t, last[1]); v < 20 {
		t.Errorf("compute spread = %v, want >> 10", v)
	}
	if v := parseF(t, last[2]); v < 5 || v > 25 {
		t.Errorf("bandwidth spread = %v, want ~18", v)
	}
}

func TestFig3MatchesPaper(t *testing.T) {
	tab, err := Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	if got := parseF(t, byName["iridium (paper)"][5]); got != 88.5 {
		t.Errorf("iridium (paper) total = %v, want 88.5", got)
	}
	// Our shuffle-only LP may land on a sibling optimum; its total must
	// be in the same regime (>= the better approach, <= the paper's).
	if got := parseF(t, byName["iridium (LP)"][5]); got < 70 || got > 89 {
		t.Errorf("iridium (LP) total = %v, want within [70, 89]", got)
	}
	if got := parseF(t, byName["centralized"][5]); got != 93 {
		t.Errorf("centralized total = %v, want 93", got)
	}
	if got := parseF(t, byName["paper better"][5]); got < 59 || got > 60.5 {
		t.Errorf("paper better total = %v, want ~59.83", got)
	}
	if got := parseF(t, byName["tetrium (LP)"][5]); got > 62 {
		t.Errorf("tetrium LP total = %v, want in the better-approach regime (<62)", got)
	}
}

func TestSec22MatchesPaper(t *testing.T) {
	tab, err := Sec22(quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := parseF(t, tab.Rows[0][3]); got != 1.7 {
		t.Errorf("good order average = %v, want 1.7", got)
	}
	if got := parseF(t, tab.Rows[1][3]); got != 2.65 {
		t.Errorf("bad order average = %v, want 2.65", got)
	}
}

func TestFig56Shapes(t *testing.T) {
	fig5, fig6, err := Fig56(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5.Rows) == 0 || len(fig6.Rows) == 0 {
		t.Fatal("empty tables")
	}
	for _, r := range fig5.Rows {
		vsInPlace := parsePct(t, r[1])
		if vsInPlace <= 0 {
			t.Errorf("%s: no gain vs in-place (%v%%)", r[0], vsInPlace)
		}
	}
}

// TestFig7Monotone checks that decision time grows with the number of
// jobs. The quick table's rows take one to a few milliseconds, and a
// loaded host can preempt a row for longer than that; preemption only
// ever adds time, so the fastest first and last rows of five tables are
// compared.
func TestFig7Monotone(t *testing.T) {
	first, last := math.Inf(1), math.Inf(1)
	for i := 0; i < 5; i++ {
		tab, err := Fig7(quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) < 2 {
			t.Fatal("too few rows")
		}
		first = math.Min(first, parseF(t, tab.Rows[0][1]))
		last = math.Min(last, parseF(t, tab.Rows[len(tab.Rows)-1][1]))
	}
	if last < first {
		t.Errorf("decision time not growing with jobs: %v -> %v ms (fastest of five tables)", first, last)
	}
}

func TestFig8(t *testing.T) {
	a, b, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 {
		t.Fatalf("fig8a rows = %d", len(a.Rows))
	}
	// Tetrium gains vs in-place must be positive.
	if v := parsePct(t, a.Rows[0][1]); v <= 0 {
		t.Errorf("tetrium gain vs in-place = %v%%", v)
	}
	if len(b.Rows) != 5 {
		t.Fatalf("fig8b rows = %d", len(b.Rows))
	}
}

func TestFig9(t *testing.T) {
	tab, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig10ab(t *testing.T) {
	tab, err := Fig10ab(quick)
	if err != nil {
		t.Fatal(err)
	}
	// WAN savings vs in-place must shrink (or stay) as rho grows.
	prev := 1e9
	for _, r := range tab.Rows {
		wan := parsePct(t, r[2])
		if wan > prev+10 { // tolerance for sim noise
			t.Errorf("WAN saving grew with rho: %v after %v", wan, prev)
		}
		prev = wan
	}
	// All rho settings must still beat the in-place baseline; the
	// response-vs-rho ordering itself is noise-dominated at quick scale.
	for _, r := range tab.Rows {
		if v := parsePct(t, r[1]); v < -20 {
			t.Errorf("rho=%s: response gain %v%% collapsed", r[0], v)
		}
	}
}

func TestFig10c(t *testing.T) {
	tab, err := Fig10c(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Every ε setting must beat the in-place baseline (placement keeps
	// most of its benefit under any slot-sharing policy).
	for _, r := range tab.Rows {
		if v := parsePct(t, r[1]); v < -20 {
			t.Errorf("eps=%s: gain %v%% collapsed", r[0], v)
		}
	}
}

func TestFig11(t *testing.T) {
	tab, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Rows[0]) != 3 {
		t.Fatalf("unexpected shape: %v", tab.Rows)
	}
}

func TestFig12(t *testing.T) {
	tabs, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("panels = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 4 {
			t.Fatalf("%s rows = %d", tab.ID, len(tab.Rows))
		}
		// Fractions sum to ~100%.
		sum := 0.0
		for _, r := range tab.Rows {
			sum += parseF(t, r[1])
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s query fractions sum to %v", tab.ID, sum)
		}
	}
}

func TestSkewSweep(t *testing.T) {
	tab, err := SkewSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Gains at high skew should exceed gains at no skew for slot skew.
	lo := parsePct(t, tab.Rows[0][1])
	hi := parsePct(t, tab.Rows[len(tab.Rows)-1][1])
	if hi < lo-10 {
		t.Errorf("slot-skew gains did not grow: %v%% -> %v%%", lo, hi)
	}
}

func TestTetrisCompare(t *testing.T) {
	tab, err := TetrisCompare(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestForwardReverse(t *testing.T) {
	tab, err := ForwardReverse(quick)
	if err != nil {
		t.Fatal(err)
	}
	imp := parsePct(t, tab.Rows[1][1])
	// Best-of-both can only improve the estimate, and per the paper the
	// improvement is marginal.
	if imp < -0.01 {
		t.Errorf("best-of improvement negative: %v%%", imp)
	}
	if imp > 30 {
		t.Errorf("best-of improvement %v%% implausibly large", imp)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:    "x",
		Title: "demo",
		Cols:  []string{"a", "bb"},
		Rows:  [][]string{{"1", "2"}, {"333", "4"}},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestExtensions(t *testing.T) {
	tab, err := Extensions(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	base := parseF(t, tab.Rows[0][1])
	withRep := parseF(t, tab.Rows[1][1])
	withSpec := parseF(t, tab.Rows[2][1])
	both := parseF(t, tab.Rows[3][1])
	// Each extension must not regress the base meaningfully.
	for name, v := range map[string]float64{"replicas": withRep, "speculation": withSpec, "both": both} {
		if v > base*1.10 {
			t.Errorf("%s regressed: %v vs base %v", name, v, base)
		}
	}
	// Speculation must actually fire on the straggler trace.
	if copies := parseF(t, tab.Rows[2][3]); copies == 0 {
		t.Error("no speculative copies launched")
	}
	// Replicas must save WAN.
	if parseF(t, tab.Rows[1][2]) > parseF(t, tab.Rows[0][2])*1.02 {
		t.Error("replicas did not reduce WAN usage")
	}
}
