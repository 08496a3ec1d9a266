// Command faultcampaign runs an RTL fault-injection campaign on one
// workload and reports the probability of failure at the off-core
// boundary, broken down by outcome and functional unit.
//
// Usage:
//
//	faultcampaign -w ttsprk -target iu -model sa1 -nodes 256 -seed 1
//
// -models (alias -model) takes a comma-separated list of fault models:
// the permanent sa0, sa1 and open, the transient seu (single-event
// bit-flip) and set (glitch pulse; width via -pulse), or "all" for the
// paper's permanent trio. Transient injection instants are sampled
// deterministically per experiment from -seed over the window between
// the fixed injection instant and the end of the golden run.
//
// Every mode runs the campaign through the job service's execution path
// (a jobs.Request planned, executed and assembled into the canonical
// outcome); the flags only choose how that outcome is printed. With
// -json it is emitted in the service's deterministic encoding, so CLI
// output and `faultserverd` responses are byte-for-byte diffable for the
// same spec; without it the same outcome is rendered as a report.
//
// -shards N executes the campaign as N deterministic experiment-range
// shards on in-process workers (one binary, no daemon); results are
// byte-identical to the unsharded run. -epsilon E enables adaptive early
// stopping: the campaign halts once the Wilson 95% half-width around the
// progressive Pf drops to E.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/core"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/sparc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultcampaign: ")
	var (
		name    = flag.String("w", "ttsprk", "workload name ("+strings.Join(core.WorkloadNames(), ", ")+")")
		iters   = flag.Int("iters", 2, "kernel iterations")
		dataset = flag.Int("dataset", 0, "input dataset selector")
		target  = flag.String("target", "iu", "injection target: iu or cmem")
		model   = flag.String("model", "all", "comma-separated fault models: sa0, sa1, open, seu, set or all (= sa0,sa1,open)")
		nodes   = flag.Int("nodes", 256, "node sample size (0 = exhaustive)")
		pulse   = flag.Uint64("pulse", 0, "set-pulse glitch width in cycles (0 = 1; only with the set model)")
		seed    = flag.Int64("seed", 1, "sampling seed")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		inject  = flag.Uint64("inject-at", 0, "injection instant (cycle)")
		injfrac = flag.Float64("inject-frac", 0, "injection instant as a fraction of the golden run (overrides -inject-at)")
		noCkpt  = flag.Bool("no-checkpoint", false, "re-simulate each experiment from reset instead of forking the golden-run checkpoint")
		noBatch = flag.Bool("no-batch", false, "run each experiment as its own scalar simulation instead of batching fault universes through the bit-parallel engine")
		asJSON  = flag.Bool("json", false, "emit the campaign job service's canonical result JSON")
		shards  = flag.Int("shards", 0, "split the campaign into this many experiment-range shards on in-process workers (0/1 = unsharded)")
		epsilon = flag.Float64("epsilon", 0, "adaptive early stop once the Wilson 95% half-width around Pf reaches this (0 = run to completion)")
		engine  = flag.String("engine", "rtl", "campaign engine: rtl, iss, or hybrid (ISS-predicted, RTL-audited)")
		audit   = flag.Float64("rtl-audit", 0, "hybrid: RTL-audit fraction of ISS-trusted experiments (0 = default 0.1; 1.0 = pure RTL)")
		conf    = flag.Float64("confidence", 0, "hybrid: per-class R² threshold below which the class re-runs on RTL (0 = default 0.9)")
	)
	flag.Var(aliasValue{model}, "models", "alias for -model (comma-separated fault model list)")
	flag.Parse()

	// The -iters flag defaults to 2 for the human-readable campaign, but
	// an HTTP submission that omits "iterations" means 0 (workload
	// default). For byte-parity with the server, -json maps an unset flag
	// to 0 too; an explicit -iters still wins. The human-readable modes
	// keep the CLI default so -shards/-epsilon never change which
	// campaign runs.
	its := *iters
	if *asJSON {
		its = 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "iters" {
				its = *iters
			}
		})
	}
	req := jobs.Request{
		Workload:         *name,
		Iterations:       its,
		Dataset:          *dataset,
		Target:           *target,
		Nodes:            *nodes,
		Seed:             *seed,
		InjectAtCycle:    *inject,
		InjectAtFraction: *injfrac,
		PulseCycles:      *pulse,
		NoCheckpoint:     *noCkpt,
		NoBatch:          *noBatch,
		Epsilon:          *epsilon,
		Engine:           *engine,
		RTLAudit:         *audit,
		Confidence:       *conf,
	}
	if *model != "all" {
		// Unknown and duplicate names are rejected by the request
		// normalization inside Execute, keeping one canonical model list.
		req.Models = splitModels(*model)
	}
	t0 := time.Now()
	var out *jobs.Outcome
	var err error
	if *shards > 1 {
		// Sharded in-process execution: byte-identical to unsharded
		// (sharding is scheduling, not content).
		out, err = jobs.ExecuteSharded(context.Background(), req, *shards, *workers, nil)
	} else {
		out, err = jobs.Execute(context.Background(), req, *workers, nil)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		if err := jobs.EncodeOutcome(os.Stdout, out); err != nil {
			log.Fatal(err)
		}
		return
	}
	renderOutcome(out, *shards, time.Since(t0))
}

// aliasValue lets -models share the -model flag's storage.
type aliasValue struct{ s *string }

func (a aliasValue) String() string {
	if a.s == nil {
		return ""
	}
	return *a.s
}
func (a aliasValue) Set(v string) error { *a.s = v; return nil }

// splitModels turns a comma-separated -model value into the service's
// model-name list, trimming blanks so "sa1, seu" parses.
func splitModels(v string) []string {
	var out []string
	for _, name := range strings.Split(v, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// renderOutcome prints the human-readable summary of a campaign's
// canonical outcome.
func renderOutcome(out *jobs.Outcome, shards int, elapsed time.Duration) {
	fmt.Printf("workload:   %s, target %s, %d injections in %.1fs",
		out.Request.Workload, strings.ToUpper(out.Request.Target), out.Injections, elapsed.Seconds())
	if shards > 1 {
		fmt.Printf(" (%d shards)", shards)
	}
	fmt.Println()
	engine := "from-reset re-simulation"
	if out.Checkpointed {
		engine = "golden-run forking (warm-up prefix simulated once)"
	}
	ticks := "cycles"
	if out.Request.Engine == "iss" {
		ticks = "instructions (ISS timebase)"
	}
	fmt.Printf("engine:     %s, golden run %d %s\n", engine, out.GoldenCycles, ticks)
	if out.EarlyStopped {
		fmt.Printf("adaptive:   converged after %d of %d experiments (epsilon %.3g, Wilson 95%%)\n",
			out.Injections, out.Requested, out.Request.Epsilon)
	}
	fmt.Printf("Pf:         %s of faults propagated to failures (95%% CI %s..%s, Wilson)\n",
		report.Percent(out.Pf), report.Percent(out.PfLow), report.Percent(out.PfHigh))
	if out.MaxLatencyCycles >= 0 {
		fmt.Printf("latency:    max detection latency %d cycles\n", out.MaxLatencyCycles)
	}
	if h := out.Hybrid; h != nil {
		fmt.Printf("hybrid:     %d ISS-trusted + %d RTL (%d audited), %d audit disagreements (%s)\n",
			h.ISSExperiments, h.RTLExperiments, h.Audited, h.Disagreements, report.Percent(h.DisagreementRate))
		fmt.Printf("corrected:  Pf interval %s..%s after audit-error widening\n",
			report.Percent(h.CorrectedPfLow), report.Percent(h.CorrectedPfHigh))
		tab := &report.Table{
			Title:   "hybrid routing by node class",
			Columns: []string{"unit", "exps", "rtl", "audited", "R2", "routed", "pred Pf", "audit Pf"},
		}
		for _, c := range h.Classes {
			routed := "trust"
			if c.Escalated {
				routed = "escalate"
			}
			tab.AddRow(c.Unit, c.Experiments, c.RTLExperiments, c.Audited,
				fmt.Sprintf("%.3f", c.R2), routed,
				report.Percent(c.PredictedPf), report.Percent(c.AuditedPf))
		}
		fmt.Print(tab.String())
	}
	// Sort outcome and unit names in their enum order: the wire encoding
	// keys them by name, but the report lists them in engine order.
	keys := make([]string, 0, len(out.Outcomes))
	for k := range out.Outcomes {
		keys = append(keys, k)
	}
	sortByRank(keys, outcomeRank())
	fmt.Printf("outcomes:  ")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, out.Outcomes[k])
	}
	fmt.Println()
	tab := &report.Table{Title: "per-unit Pf (Pmf of Equation 1)", Columns: []string{"unit", "Pf"}}
	units := make([]string, 0, len(out.PfByUnit))
	for u := range out.PfByUnit {
		units = append(units, u)
	}
	sortByRank(units, unitRank())
	for _, u := range units {
		tab.AddRow(u, report.Percent(out.PfByUnit[u]))
	}
	fmt.Print(tab.String())
}

// outcomeRank and unitRank map the service's wire names back onto their
// enum order.
func outcomeRank() map[string]int {
	r := map[string]int{}
	for o := fault.OutcomeNoEffect; o <= fault.OutcomeHang; o++ {
		r[o.String()] = int(o)
	}
	return r
}

func unitRank() map[string]int {
	r := map[string]int{}
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		r[u.String()] = int(u)
	}
	return r
}

// sortByRank orders names by their rank, unknown names last by name.
func sortByRank(names []string, rank map[string]int) {
	sort.Slice(names, func(i, j int) bool {
		ri, iok := rank[names[i]]
		rj, jok := rank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok != jok:
			return iok
		default:
			return names[i] < names[j]
		}
	})
}
