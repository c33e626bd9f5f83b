package fault

import "tetrium/internal/cluster"

// SpeculateAfter is the multiple of its estimate a straggler runs before
// either driver copies it (§8; arXiv:1404.1328: one replica past a
// fixed threshold).
const SpeculateAfter = 2

// Apply returns what the fault leaves of a site whose original capacity
// is orig and whose current capacity is cur. A crash loses the site's
// compute and keeps its links (partition is how a spec cuts links); a
// rejoin restores orig; a degrade leaves the links at orig × (1 − Frac);
// a restore puts orig's links back. Any other kind changes no capacity
// and returns false. Link floors are the caller's.
func (f Fault) Apply(orig, cur cluster.Site) (cluster.Site, bool) {
	switch f.Kind {
	case SiteCrash:
		cur.Slots = 0
	case SiteRejoin:
		cur = orig
	case LinkDegrade:
		cur.UpBW, cur.DownBW = orig.UpBW*(1-f.Frac), orig.DownBW*(1-f.Frac)
	case LinkRestore:
		cur.UpBW, cur.DownBW = orig.UpBW, orig.DownBW
	default:
		return cur, false
	}
	return cur, true
}
