package tetrium

import "testing"

// TestSchedulerRoundTrip: ParseScheduler must invert String for every
// scheduler, so flags, JSON output, and logs all share one vocabulary.
func TestSchedulerRoundTrip(t *testing.T) {
	for _, s := range Schedulers() {
		got, err := ParseScheduler(s.String())
		if err != nil {
			t.Errorf("ParseScheduler(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("ParseScheduler(%q) = %v, want %v", s.String(), got, s)
		}
	}
}

func TestParseSchedulerErrors(t *testing.T) {
	for _, bad := range []string{"", "TETRIUM", "spark", "Scheduler(9)"} {
		if _, err := ParseScheduler(bad); err == nil {
			t.Errorf("ParseScheduler(%q) accepted", bad)
		}
	}
	// The undocumented but convenient alias.
	if s, err := ParseScheduler("inplace"); err != nil || s != SchedulerInPlace {
		t.Errorf("ParseScheduler(inplace) = %v, %v", s, err)
	}
}

func TestParseTrace(t *testing.T) {
	for name, want := range map[string]TraceKind{
		"tpcds":   TraceTPCDS,
		"bigdata": TraceBigData,
		"prod":    TraceProduction,
	} {
		if got, err := ParseTrace(name); err != nil || got != want {
			t.Errorf("ParseTrace(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "TPCDS", "production", "bogus"} {
		if _, err := ParseTrace(bad); err == nil {
			t.Errorf("ParseTrace(%q) accepted", bad)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	names := SchedulerNames()
	if len(names) != len(Schedulers()) {
		t.Fatalf("%d names for %d schedulers", len(names), len(Schedulers()))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate scheduler name %q", n)
		}
		seen[n] = true
	}
}
