// Command tetrium-fleet ingests saved tetrium-serve artifacts — a
// durable-restart journal and/or a JSONL event trace (from
// /debug/events or an exported obs stream) — into the same fleet
// analytics store the live /v1/analytics endpoints serve, then prints
// the reports or serves them over HTTP.
//
// Offline report over a finished run:
//
//	tetrium-fleet -journal run.journal -events events.jsonl
//
// The offline totals (jobs, slot-seconds, WAN bytes) match the live
// server's /v1/analytics numbers bit-for-bit for the same artifacts:
// the store only sums what the events carry, in order, and the engine
// computes each quantity exactly once before serializing it.
//
// Serve the same endpoints over the ingested artifacts:
//
//	tetrium-fleet -events events.jsonl -serve :9090
//	curl localhost:9090/v1/analytics/resource-hogs
//
// Machine-readable output for scripting:
//
//	tetrium-fleet -events events.jsonl -json | jq .totals
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"tetrium/internal/fleet"
	"tetrium/internal/journal"
)

func main() {
	var (
		journalPath = flag.String("journal", "", "journal file to ingest (read-only; no snapshot side effects)")
		eventsPath  = flag.String("events", "", "JSONL event trace to ingest (- for stdin)")
		top         = flag.Int("top", 10, "top-N jobs in the resource-hogs report")
		windows     = flag.Int("windows", 10, "usage-trend windows to print")
		asJSON      = flag.Bool("json", false, "print the full summary as JSON instead of tables")
		serveAddr   = flag.String("serve", "", "serve /v1/analytics over HTTP at this address instead of printing")
	)
	flag.Parse()

	if *journalPath == "" && *eventsPath == "" {
		fmt.Fprintln(os.Stderr, "tetrium-fleet: need -journal and/or -events (see -h)")
		os.Exit(2)
	}

	st := fleet.New(fleet.Config{})
	defer st.Close()

	// Events first, journal second: the journal fold only fills in jobs
	// whose events are missing from the trace (ring overflow, partial
	// capture), so the event-derived numbers win when both sources cover
	// a job. This is the same order the live store sees.
	if *eventsPath != "" {
		f := os.Stdin
		if *eventsPath != "-" {
			var err error
			f, err = os.Open(*eventsPath)
			if err != nil {
				fail(err)
			}
			defer f.Close()
		}
		n, err := st.IngestJSONL(f)
		if err != nil {
			fail(fmt.Errorf("events: %w", err))
		}
		fmt.Fprintf(os.Stderr, "tetrium-fleet: ingested %d events from %s\n", n, *eventsPath)
	}
	if *journalPath != "" {
		jst, err := journal.ReadFile(*journalPath)
		if err != nil {
			fail(fmt.Errorf("journal: %w", err))
		}
		st.IngestJournal(jst)
		fmt.Fprintf(os.Stderr, "tetrium-fleet: folded journal %s (%d live, %d done)\n",
			*journalPath, len(jst.Live), len(jst.Done))
	}

	if *serveAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/v1/analytics/", http.StripPrefix("/v1/analytics", fleet.Routes(st)))
		fmt.Fprintf(os.Stderr, "tetrium-fleet: serving /v1/analytics on %s\n", *serveAddr)
		fail(http.ListenAndServe(*serveAddr, mux))
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st.Summary()); err != nil {
			fail(err)
		}
		return
	}
	printReports(st, *top, *windows)
}

func printReports(st *fleet.Store, top, windows int) {
	t := st.Totals()
	fmt.Printf("totals: %d jobs done (%d admitted), %.6g slot-seconds, %.6g WAN bytes\n\n",
		t.Jobs, t.Admitted, t.SlotSeconds, t.WANBytes)

	hogs := st.ResourceHogs(top)
	fmt.Println("resource hogs (by slot-seconds):")
	fmt.Println("  tenant           admitted  done  slot-sec     slot%   wan-bytes    wan%")
	for _, tn := range hogs.Tenants {
		fmt.Printf("  %-15s  %8d  %4d  %-10.6g  %5.1f  %-10.6g  %5.1f\n",
			tn.Tenant, tn.Admitted, tn.Done, tn.SlotSeconds, tn.SlotShare*100,
			tn.WANBytes, tn.WANShare*100)
	}
	if len(hogs.TopJobsBySlotSeconds) > 0 {
		fmt.Println("  top jobs by slot-seconds:")
		for _, j := range hogs.TopJobsBySlotSeconds {
			fmt.Printf("    job %-5d  %-12s  %-15s  %.6g slot-sec, %.6g wan\n",
				j.ID, j.Tenant, j.Name, j.SlotSeconds, j.WANBytes)
		}
	}

	eff := st.Efficiency()
	fmt.Println("\nefficiency:")
	for _, tn := range eff.Tenants {
		fmt.Printf("  %-15s  speculated=%d rescued=%d (rate %.2f)  requeues=%d waste=%.6g slot-sec (%.1f%%)\n",
			tn.Tenant, tn.SpeculatedStages, tn.RescuedStages, tn.RescueRate,
			tn.Requeues, tn.WasteSlotSeconds, tn.WasteFraction*100)
	}
	fmt.Printf("  lp: %d solves (%d warm-started, %.1f%%), %d cache hits (%.1f%% hit rate), %d fallbacks, %d deadline fallbacks\n",
		eff.LPSolves, eff.LPWarmSolves, eff.WarmStartRate*100, eff.LPCacheHits, eff.CacheHitRate*100, eff.LPFallbacks, eff.LPDeadlineFallbacks)

	acc := st.EstimateAccuracy()
	fmt.Println("\nestimate accuracy (relative error, estimate vs actual):")
	if acc.Overall.Count == 0 {
		fmt.Println("  no samples")
	} else {
		o := acc.Overall
		fmt.Printf("  overall          n=%-5d mean=%.4f p50=%.4f p90=%.4f p95=%.4f p99=%.4f\n",
			o.Count, o.Mean, o.P50, o.P90, o.P95, o.P99)
		for _, tn := range acc.Tenants {
			p := tn.ErrPercentiles
			fmt.Printf("  %-15s  n=%-5d mean=%.4f p50=%.4f p90=%.4f p95=%.4f p99=%.4f\n",
				tn.Tenant, p.Count, p.Mean, p.P50, p.P90, p.P95, p.P99)
		}
	}

	tr := st.UsageTrends(windows)
	fmt.Printf("\nusage trends (last %d windows of %.0fs):\n", len(tr.Windows), tr.WindowSeconds)
	for _, w := range tr.Windows {
		fmt.Printf("  [%.0f..%.0f)  jobs_done=%d wan=%.6g slot-sec/site=%v\n",
			w.Start, w.End, w.JobsDone, w.WANBytes, w.SlotSecondsBySite)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tetrium-fleet:", err)
	os.Exit(1)
}
