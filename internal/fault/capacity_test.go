package fault

import (
	"testing"

	"tetrium/internal/cluster"
)

// TestApply pins what each timeline fault leaves of a site: a crash
// loses compute and keeps even degraded links, a partition is a degrade
// with frac = 1, rejoins and restores go back to the original, and a
// kind that is not about capacity changes nothing.
func TestApply(t *testing.T) {
	orig := cluster.Site{Name: "s", Slots: 8, UpBW: 100, DownBW: 200}
	cur := cluster.Site{Name: "s", Slots: 3, UpBW: 40, DownBW: 80} // already shrunk

	sp, err := ParseSpec("partition@1s:site=0")
	if err != nil {
		t.Fatal(err)
	}
	partition := sp.Events[0]

	cases := []struct {
		name string
		f    Fault
		want cluster.Site
		ok   bool
	}{
		{"crash", Fault{Kind: SiteCrash}, cluster.Site{Name: "s", Slots: 0, UpBW: 40, DownBW: 80}, true},
		{"rejoin", Fault{Kind: SiteRejoin}, orig, true},
		{"degrade", Fault{Kind: LinkDegrade, Frac: 0.75}, cluster.Site{Name: "s", Slots: 3, UpBW: 25, DownBW: 50}, true},
		{"partition", partition, cluster.Site{Name: "s", Slots: 3, UpBW: 0, DownBW: 0}, true},
		{"restore", Fault{Kind: LinkRestore}, cluster.Site{Name: "s", Slots: 3, UpBW: 100, DownBW: 200}, true},
		{"straggle", Fault{Kind: TaskStraggle, Factor: 4}, cur, false},
		{"stall", Fault{Kind: SolveStall, Dur: 1}, cur, false},
		{"panic", Fault{Kind: PanicInject, Site: -1}, cur, false},
		{"corrupt", Fault{Kind: JournalCorrupt, Rec: 2}, cur, false},
	}
	if partition.Kind != LinkDegrade || partition.Frac != 1 {
		t.Fatalf("partition parsed as %+v, want a degrade with frac 1", partition)
	}
	for _, c := range cases {
		got, ok := c.f.Apply(orig, cur)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: Apply = %+v, %v; want %+v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}
