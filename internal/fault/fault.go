// Package fault is a deterministic, seedable fault injector for the
// failure domain: it turns a compact textual spec into a reproducible
// schedule of site crashes/rejoins and WAN link degradations, plus
// deterministic per-task straggle factors and LP-solve stalls. The same
// (spec, seed) pair always yields the same faults, so a chaos run that
// finds a bug is replayable byte-for-byte.
//
// The injector is pluggable into both execution substrates:
//
//   - sim.Config.Faults drives the discrete-event simulator (times are
//     simulated seconds);
//   - engine.Config.Faults drives the online serving engine (times are
//     wall-clock seconds since engine start).
//
// Every fault the substrate applies is emitted as an obs.Fault event,
// so chaos runs leave a full forensic trace.
//
// Spec grammar — semicolon-separated clauses:
//
//	crash@T:site=S[,dur=D]        site S loses its compute, not its links,
//	                              at T; rejoins after D (omitted: permanent)
//	degrade@T:site=S,frac=F[,dur=D]
//	                              site S loses fraction F of its WAN
//	                              up/down bandwidth at T; restores after D
//	partition@T:site=S[,dur=D]    shorthand for degrade with frac=1 (the
//	                              site keeps compute but is cut off the WAN)
//	straggle:p=P[,x=N]            each task independently straggles with
//	                              probability P, running N× slower
//	                              (default N=4); deterministic per
//	                              (seed, job, stage, task, attempt)
//	stall:every=K,dur=D           every K-th LP solve stalls for D before
//	                              returning (models a wedged solver)
//	panic@T[:site=S]              panics on the engine event loop at T,
//	                              exercising panic containment; site names
//	                              a federation shard (omitted: the engine
//	                              owning the injector)
//	corrupt@T:rec=N[,shard=I]     flips a byte in record N (0-indexed) of
//	                              shard I's journal at T; surfaces as a
//	                              quarantined record on the next replay
//	                              (federation-level; engines ignore it)
//
// T and D accept Go duration syntax ("1.5s", "300ms") or plain float
// seconds. Example:
//
//	crash@2s:site=1,dur=3s;degrade@1s:site=0,frac=0.6,dur=5s;straggle:p=0.1,x=6;stall:every=7,dur=250ms
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind is the type of one injected fault.
type Kind int

// Fault kinds.
const (
	// SiteCrash: a site loses its compute; its WAN links stay (Apply).
	SiteCrash Kind = iota
	// SiteRejoin restores a crashed site's original capacity.
	SiteRejoin
	// LinkDegrade removes a fraction of a site's WAN bandwidth.
	LinkDegrade
	// LinkRestore restores a degraded site's original bandwidth.
	LinkRestore
	// TaskStraggle marks a task running Factor× slower than estimated.
	// Not part of Timeline — surfaced through Injector.StraggleFactor.
	TaskStraggle
	// SolveStall marks an LP solve delayed by Dur seconds. Not part of
	// Timeline — surfaced through Injector.SolveStall.
	SolveStall
	// PanicInject panics on the engine's event loop at Time, exercising
	// panic containment. Site < 0 targets the engine that owns the
	// injector; Site >= 0 names a federation shard (applied by the
	// supervisor, ignored by individual engines).
	PanicInject
	// JournalCorrupt flips a byte in record Rec of shard Shard's journal
	// at Time. Applied by the federation supervisor (engines ignore it);
	// the damage surfaces as a quarantined record at the next replay.
	JournalCorrupt
)

func (k Kind) String() string {
	switch k {
	case SiteCrash:
		return "site_crash"
	case SiteRejoin:
		return "site_rejoin"
	case LinkDegrade:
		return "link_degrade"
	case LinkRestore:
		return "link_restore"
	case TaskStraggle:
		return "task_straggle"
	case SolveStall:
		return "solve_stall"
	case PanicInject:
		return "panic_inject"
	case JournalCorrupt:
		return "journal_corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled fault.
type Fault struct {
	// Time is seconds since run start (simulated seconds in the
	// simulator, wall seconds in the engine).
	Time float64
	Kind Kind
	// Site is the affected site (crash/rejoin/degrade/restore).
	Site int
	// Frac is the bandwidth fraction removed by LinkDegrade.
	Frac float64
	// Factor is the straggle slowdown multiplier (TaskStraggle).
	Factor float64
	// Dur is the stall duration in seconds (SolveStall).
	Dur float64
	// Shard and Rec name the target journal record (JournalCorrupt).
	Shard int
	Rec   int
}

// Spec is a parsed fault specification, independent of any seed.
type Spec struct {
	// Events is the crash/rejoin/degrade/restore timeline (unsorted;
	// the Injector sorts).
	Events []Fault
	// StraggleP is the per-task straggle probability; 0 disables.
	StraggleP float64
	// StraggleX is the straggle slowdown multiplier (default 4).
	StraggleX float64
	// StallEvery stalls every K-th LP solve; 0 disables.
	StallEvery int
	// StallDur is the stall duration in seconds.
	StallDur float64
}

// ParseSpec parses the package-level spec grammar. An empty string
// yields an empty (fault-free) spec.
func ParseSpec(s string) (*Spec, error) {
	sp := &Spec{StraggleX: 4}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := sp.parseClause(clause); err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	return sp, nil
}

func (sp *Spec) parseClause(clause string) error {
	head, args, _ := strings.Cut(clause, ":")
	verb, at, hasAt := strings.Cut(head, "@")
	kv, err := parseArgs(args)
	if err != nil {
		return err
	}
	switch verb {
	case "crash", "degrade", "partition":
		if !hasAt {
			return fmt.Errorf("%s needs a @time", verb)
		}
		t, err := parseSeconds(at)
		if err != nil {
			return fmt.Errorf("time: %w", err)
		}
		site, ok := kv["site"]
		if !ok {
			return fmt.Errorf("%s needs site=", verb)
		}
		s, err := strconv.Atoi(site)
		if err != nil || s < 0 {
			return fmt.Errorf("bad site %q", site)
		}
		var dur float64 = -1
		if d, ok := kv["dur"]; ok {
			if dur, err = parseSeconds(d); err != nil || dur <= 0 {
				return fmt.Errorf("bad dur %q", d)
			}
		}
		switch verb {
		case "crash":
			sp.Events = append(sp.Events, Fault{Time: t, Kind: SiteCrash, Site: s})
			if dur > 0 {
				sp.Events = append(sp.Events, Fault{Time: t + dur, Kind: SiteRejoin, Site: s})
			}
		default: // degrade, partition
			frac := 1.0
			if verb == "degrade" {
				f, ok := kv["frac"]
				if !ok {
					return fmt.Errorf("degrade needs frac=")
				}
				if frac, err = strconv.ParseFloat(f, 64); err != nil || frac <= 0 || frac > 1 {
					return fmt.Errorf("bad frac %q (want (0,1])", f)
				}
			}
			sp.Events = append(sp.Events, Fault{Time: t, Kind: LinkDegrade, Site: s, Frac: frac})
			if dur > 0 {
				sp.Events = append(sp.Events, Fault{Time: t + dur, Kind: LinkRestore, Site: s})
			}
		}
	case "straggle":
		p, ok := kv["p"]
		if !ok {
			return fmt.Errorf("straggle needs p=")
		}
		if sp.StraggleP, err = strconv.ParseFloat(p, 64); err != nil || sp.StraggleP < 0 || sp.StraggleP > 1 {
			return fmt.Errorf("bad p %q (want [0,1])", p)
		}
		if x, ok := kv["x"]; ok {
			if sp.StraggleX, err = strconv.ParseFloat(x, 64); err != nil || sp.StraggleX <= 1 {
				return fmt.Errorf("bad x %q (want > 1)", x)
			}
		}
	case "panic":
		if !hasAt {
			return fmt.Errorf("panic needs a @time")
		}
		t, err := parseSeconds(at)
		if err != nil {
			return fmt.Errorf("time: %w", err)
		}
		site := -1
		if s, ok := kv["site"]; ok {
			if site, err = strconv.Atoi(s); err != nil || site < 0 {
				return fmt.Errorf("bad site %q", s)
			}
		}
		sp.Events = append(sp.Events, Fault{Time: t, Kind: PanicInject, Site: site})
	case "corrupt":
		if !hasAt {
			return fmt.Errorf("corrupt needs a @time")
		}
		t, err := parseSeconds(at)
		if err != nil {
			return fmt.Errorf("time: %w", err)
		}
		shard := 0
		if s, ok := kv["shard"]; ok {
			if shard, err = strconv.Atoi(s); err != nil || shard < 0 {
				return fmt.Errorf("bad shard %q", s)
			}
		}
		r, ok := kv["rec"]
		if !ok {
			return fmt.Errorf("corrupt needs rec=")
		}
		rec, err := strconv.Atoi(r)
		if err != nil || rec < 0 {
			return fmt.Errorf("bad rec %q", r)
		}
		sp.Events = append(sp.Events, Fault{Time: t, Kind: JournalCorrupt, Shard: shard, Rec: rec})
	case "stall":
		every, ok := kv["every"]
		if !ok {
			return fmt.Errorf("stall needs every=")
		}
		if sp.StallEvery, err = strconv.Atoi(every); err != nil || sp.StallEvery <= 0 {
			return fmt.Errorf("bad every %q (want > 0)", every)
		}
		d, ok := kv["dur"]
		if !ok {
			return fmt.Errorf("stall needs dur=")
		}
		if sp.StallDur, err = parseSeconds(d); err != nil || sp.StallDur <= 0 {
			return fmt.Errorf("bad dur %q", d)
		}
	default:
		return fmt.Errorf("unknown verb %q", verb)
	}
	return nil
}

func parseArgs(s string) (map[string]string, error) {
	kv := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return kv, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("bad argument %q (want key=value)", part)
		}
		kv[k] = v
	}
	return kv, nil
}

// parseSeconds accepts Go duration syntax or plain float seconds.
func parseSeconds(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is neither a duration nor seconds", s)
	}
	return v, nil
}

// Injector is a sealed (spec, seed) pair handing out the deterministic
// fault schedule. Safe for concurrent use: all state is immutable after
// New.
type Injector struct {
	timeline   []Fault
	straggleP  float64
	straggleX  float64
	stallEvery int
	stallDur   time.Duration
	seed       int64
}

// New builds an injector from a parsed spec and a seed. The seed only
// drives the straggle lottery; the event timeline is the spec's,
// verbatim (sorted by time).
func New(sp *Spec, seed int64) *Injector {
	in := &Injector{
		timeline:   append([]Fault(nil), sp.Events...),
		straggleP:  sp.StraggleP,
		straggleX:  sp.StraggleX,
		stallEvery: sp.StallEvery,
		stallDur:   time.Duration(sp.StallDur * float64(time.Second)),
		seed:       seed,
	}
	if in.straggleX <= 1 {
		in.straggleX = 4
	}
	sort.SliceStable(in.timeline, func(i, j int) bool { return in.timeline[i].Time < in.timeline[j].Time })
	return in
}

// Parse is the one-step convenience: ParseSpec + New.
func Parse(spec string, seed int64) (*Injector, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return New(sp, seed), nil
}

// Timeline returns the scheduled crash/rejoin/degrade/restore faults in
// time order. The slice is a copy.
func (in *Injector) Timeline() []Fault {
	return append([]Fault(nil), in.timeline...)
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 { return in.seed }

// StraggleFactor returns the slowdown multiplier for one task attempt:
// 1 when the task runs at normal speed, the spec's x multiplier when the
// deterministic per-(seed, job, stage, task, attempt) lottery selects
// it. attempt distinguishes re-executions of the same task (a re-run
// after a site loss is a fresh draw, like a fresh machine).
func (in *Injector) StraggleFactor(job, stage, task, attempt int) float64 {
	if in.straggleP <= 0 {
		return 1
	}
	h := fnv64(in.seed, int64(job), int64(stage), int64(task), int64(attempt))
	// Map the top 53 bits to [0,1).
	u := float64(h>>11) / float64(1<<53)
	if u < in.straggleP {
		return in.straggleX
	}
	return 1
}

// SolveStall returns how long the seq-th LP solve (0-based, counted by
// the caller) should stall before running, or 0.
func (in *Injector) SolveStall(seq int) time.Duration {
	if in.stallEvery <= 0 {
		return 0
	}
	if (seq+1)%in.stallEvery == 0 {
		return in.stallDur
	}
	return 0
}

// Enabled reports whether the injector carries any fault at all.
func (in *Injector) Enabled() bool {
	return in != nil && (len(in.timeline) > 0 || in.straggleP > 0 || in.stallEvery > 0)
}

// fnv64 is FNV-1a over the words, giving the injector a stable,
// platform-independent lottery.
func fnv64(words ...int64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(w >> (8 * i)))
			h *= prime
		}
	}
	return h
}
