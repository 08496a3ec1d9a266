package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// scrape snapshots every series of the registry, as /metrics exposes it.
func scrape(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// exactCounters are the window deltas that are pure functions of the
// campaign list: the traced run asserts that both runs of each tier
// report them identically. Time-valued series, journal bytes (lease ids
// vary in length) and the HTTP/stream series are not in the set.
var exactCounters = []string{
	"jobs_submitted_total",
	"jobs_executed_total",
	"jobs_cache_hits_total",
	"jobs_coalesced_total",
	"shards_campaigns_total",
	"shards_leased_total",
	"shards_completed_total",
	"shards_requeued_total",
	"store_results",
	"store_journal_records",
	"store_journal_fsyncs_total",
	"engine_experiments_total",
	"engine_batch_lanes_planned_total",
	"engine_batch_lanes_activated_total",
	"engine_batch_lanes_free_total",
	"engine_snapshot_materializations_total",
	"engine_scalar_fallbacks_total",
	"engine_golden_pass_cycles_total",
	"iss_engine_experiments_total",
	`router_decisions_total{decision="trust"}`,
	`router_decisions_total{decision="audit"}`,
	`router_decisions_total{decision="escalate"}`,
	"router_audit_disagreements_total",
	"router_classes_escalated_total",
}

// tier1Figures are the figures only tier 1 takes: the client-side HTTP
// timings, and the durability primitives timed on the run's own outcome
// bytes — store.Put of every distinct outcome into a fresh store,
// Journal.AppendSync of each into a fresh journal, and the reopen
// (store.Open + OpenJournal) of the closed service's data directory.
type tier1Figures struct {
	PutMsP50        float64 `json:"put_ms_p50"`
	AppendSyncMsP50 float64 `json:"append_sync_ms_p50"`
	OpenS           float64 `json:"open_s"`
	SubmitMsP50     float64 `json:"submit_ms_p50"`
	ResultMsP50     float64 `json:"result_ms_p50"`
	StreamLines     float64 `json:"stream_lines"`
}

func (l *load) measureTop(dataDir string) error {
	var submit, result []float64
	lines := 0
	for _, r := range l.res {
		submit = append(submit, r.submitS*1e3)
		result = append(result, r.resultS*1e3)
		lines += r.lines
	}
	l.top.SubmitMsP50 = median(submit)
	l.top.ResultMsP50 = median(result)
	l.top.StreamLines = float64(lines) / float64(len(l.res))

	start := time.Now()
	if _, err := store.Open(filepath.Join(dataDir, "results")); err != nil {
		return err
	}
	j, _, err := store.OpenJournal(filepath.Join(dataDir, "journal.ndjson"))
	if err != nil {
		return err
	}
	l.top.OpenS = time.Since(start).Seconds()
	if err := j.Close(); err != nil {
		return err
	}

	dir, err := workDir("storebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		return err
	}
	j, _, err = store.OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		return err
	}
	defer j.Close()
	var put, sync []float64
	seen := map[string]bool{}
	for i, v := range l.vs {
		if v.out == nil || seen[v.key] {
			continue
		}
		seen[v.key] = true
		body := l.res[i].body
		t := time.Now()
		if err := st.Put(v.key, body); err != nil {
			return err
		}
		put = append(put, time.Since(t).Seconds()*1e3)
		t = time.Now()
		if err := j.AppendSync("bench_outcome", v.key, json.RawMessage(body)); err != nil {
			return err
		}
		sync = append(sync, time.Since(t).Seconds()*1e3)
	}
	l.top.PutMsP50 = median(put)
	l.top.AppendSyncMsP50 = median(sync)
	return nil
}

// tierReport is what a tier child process prints.
type tierReport struct {
	Tier        int                `json:"tier"`
	Setup       float64            `json:"setup_s"`
	Wall        float64            `json:"wall_s"`
	Campaigns   int                `json:"campaigns"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Experiments int                `json:"experiments"`
	Counters    map[string]float64 `json:"counters,omitempty"`
	Mem         memDelta           `json:"mem"`
	Stages      map[string]float64 `json:"stages,omitempty"`
	EngineS     map[string]float64 `json:"engine_s,omitempty"`
	EngineExps  map[string]int     `json:"engine_exps,omitempty"`
	Builds      int                `json:"builds"`
	BuildS      float64            `json:"build_s"`
	Top         tier1Figures       `json:"top"`
}

func runTier(n int, w workload, list []item) (tierReport, error) {
	l, err := runLoad(n, w, list)
	if err != nil {
		return tierReport{}, err
	}
	l.reportFailures()
	rep := tierReport{
		Tier: n, Setup: median(l.setup), Wall: l.wall, Campaigns: len(l.res),
		Attempted: l.attempted(), Failed: l.failed(), Experiments: l.experiments(),
		Counters: l.counters, Mem: l.mem, Stages: l.stages, Top: l.top,
	}
	if e := l.engine; e != nil {
		rep.EngineS, rep.EngineExps, rep.Builds, rep.BuildS = e.engineS, e.exps, e.builds, e.buildS
	}
	return rep, nil
}

// kernelRates times the RTL and ISS kernels (core.NewRTL / core.NewISS
// run to exit) over the list's distinct (program, iterations) pairs,
// repeating the set for at least a second and reporting the median
// pass rate and the simulated work of one pass.
func kernelRates(list []item) (rtlRate, issRate float64, cycles, insts uint64, err error) {
	type pk struct {
		name  string
		iters int
	}
	seen := map[pk]bool{}
	var progs []*core.Program
	for _, it := range list {
		r := it[0]
		k := pk{r.Workload, r.Iterations}
		if seen[k] {
			continue
		}
		seen[k] = true
		wl, err := core.BuildWorkload(r.Workload, core.WorkloadConfig{Iterations: r.Iterations, Dataset: r.Dataset})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		progs = append(progs, wl.Program)
	}
	var rtlRates, issRates []float64
	for start := time.Now(); time.Since(start) < time.Second || len(rtlRates) < 3; {
		var c, n uint64
		t := time.Now()
		for _, p := range progs {
			r := core.NewRTL(p)
			r.Run(200_000_000)
			c += r.Cycles()
		}
		rtlRates = append(rtlRates, float64(c)/time.Since(t).Seconds())
		t = time.Now()
		for _, p := range progs {
			s := core.NewISS(p)
			s.Run(200_000_000)
			n += s.Icount
		}
		issRates = append(issRates, float64(n)/time.Since(t).Seconds())
		cycles, insts = c, n
	}
	return median(rtlRates), median(issRates), cycles, insts, nil
}

// tierRuns are a tier's runs: two, unless the time budget cut the second.
type tierRuns []tierReport

func (r tierRuns) time() float64 {
	sum := 0.0
	for _, rep := range r {
		sum += rep.Wall
	}
	return sum / float64(len(r))
}

// spread is the difference between the two runs; NaN with one run.
func (r tierRuns) spread() float64 {
	if len(r) < 2 {
		return math.NaN()
	}
	return math.Abs(r[0].Wall - r[1].Wall)
}

// traceBudget bounds the traced run: a second run of a tier starts only
// if, at the mean child duration so far, it ends within this budget, so
// a slow host loses spreads rather than overrunning.
const traceBudget = 150 * time.Second

// traced is the --trace 1 run: one untraced end-to-end pass, then each
// tier twice in its own process (top to bottom, then bottom to top, so
// drift cancels in the mean), then the kernel timings. It prints the
// tier table and reports the per-layer metrics.
func traced(o options, w workload, list []item) error {
	if err := printProvenance(o, w); err != nil {
		return err
	}
	top := 6
	if w.name == "restart-replay" {
		// The resubmission executes nothing; below the durable manager
		// there is no store to serve it.
		top = 2
	}
	order := []int{0}
	for n := 1; n <= top; n++ {
		order = append(order, n)
	}
	for n := top; n >= 1; n-- {
		order = append(order, n)
	}
	start := time.Now()
	reps := map[int]tierRuns{}
	attempted, failed, skipped := 0, 0, 0
	for i, n := range order {
		if elapsed := time.Since(start); i > top && elapsed+elapsed/time.Duration(i) > traceBudget {
			skipped++
			continue
		}
		var rep tierReport
		if err := runChild(nil, &rep, childArgs(o, "-tier", fmt.Sprint(n))...); err != nil {
			return err
		}
		reps[n] = append(reps[n], rep)
		attempted += rep.Attempted
		failed += rep.Failed
	}
	// The exact ledger: both runs of a tier must agree on every counter
	// that is a pure function of the campaign list.
	mismatches, compared := 0, 0
	for n := 1; n <= top; n++ {
		if len(reps[n]) < 2 {
			continue
		}
		compared++
		a, b := reps[n][0], reps[n][1]
		for _, k := range exactCounters {
			if a.Counters[k] != b.Counters[k] {
				fmt.Fprintf(os.Stderr, "perfbench: tier %d counter %s: %v then %v\n", n, k, a.Counters[k], b.Counters[k])
				mismatches++
			}
		}
	}
	failed += mismatches

	self := func(n int) float64 {
		if n > top {
			return 0
		}
		if n == top {
			return reps[n].time()
		}
		return reps[n].time() - reps[n+1].time()
	}
	fmt.Printf("tier table: %s, seed %d, %d campaigns per run, each tier run twice in its own process (%d second runs skipped for time)\n",
		w.name, o.seed, reps[1][0].Campaigns, skipped)
	fmt.Printf("%-4s %-42s %9s %9s %9s  %s\n", "tier", "entry point", "time_s", "spread_s", "self_s", "")
	for n := 1; n <= top; n++ {
		spread := reps[n].spread()
		if n < top {
			spread += reps[n+1].spread()
		}
		note := "resolved"
		if !(math.Abs(self(n)) > spread) {
			note = "unresolved (self within spread)"
		}
		fmt.Printf("%-4d %-42s %9.3f %9.3f %9.3f  %s\n", n, tierNames[n], reps[n].time(), reps[n].spread(), self(n), note)
	}
	e2e := reps[0][0].Wall
	fmt.Printf("overhead: traced tier 1 %.3f s vs untraced end-to-end %.3f s (%+.1f%%)\n",
		reps[1].time(), e2e, 100*(reps[1].time()-e2e)/e2e)
	fmt.Printf("exact ledger: %d counters x %d tiers compared, %d mismatches\n", len(exactCounters), compared, mismatches)

	rtlRate, issRate, cycles, insts, err := kernelRates(list)
	if err != nil {
		return err
	}
	t1 := reps[1][0]
	c := t1.Counters
	m := map[string]metric{
		"server.submit_ms_p50":            {t1.Top.SubmitMsP50, "ms"},
		"server.result_ms_p50":            {t1.Top.ResultMsP50, "ms"},
		"server.stream_lines":             {t1.Top.StreamLines, "lines/campaign"},
		"server.self_s":                   {self(1), "s"},
		"store.durability_s":              {self(2), "s"},
		"jobs.manager_self_s":             {self(3), "s"},
		"jobs.shard_self_s":               {self(4), "s"},
		"jobs.executed":                   {c["jobs_executed_total"], "count"},
		"jobs.cache_hits":                 {c["jobs_cache_hits_total"], "count"},
		"jobs.coalesced":                  {c["jobs_coalesced_total"], "count"},
		"store.put_ms_p50":                {t1.Top.PutMsP50, "ms"},
		"store.append_sync_ms_p50":        {t1.Top.AppendSyncMsP50, "ms"},
		"store.journal_fsyncs":            {c["store_journal_fsyncs_total"], "count"},
		"store.journal_records":           {c["store_journal_records"], "count"},
		"store.journal_mb":                {c["store_journal_size_bytes"] / (1 << 20), "MB"},
		"store.open_s":                    {t1.Top.OpenS, "s"},
		"jobs.shards_leased":              {c["shards_leased_total"], "count"},
		"jobs.shards_requeued":            {c["shards_requeued_total"], "count"},
		"jobs.router_trust":               {c[`router_decisions_total{decision="trust"}`], "count"},
		"jobs.router_audit":               {c[`router_decisions_total{decision="audit"}`], "count"},
		"jobs.router_escalate":            {c[`router_decisions_total{decision="escalate"}`], "count"},
		"fault.lanes_planned":             {c["engine_batch_lanes_planned_total"], "count"},
		"fault.lanes_activated":           {c["engine_batch_lanes_activated_total"], "count"},
		"fault.lanes_free":                {c["engine_batch_lanes_free_total"], "count"},
		"fault.lane_activation_ratio":     {safeDiv(c["engine_batch_lanes_activated_total"], c["engine_batch_lanes_planned_total"]), "fraction"},
		"fault.golden_pass_cycles":        {c["engine_golden_pass_cycles_total"], "cycles"},
		"fault.golden_pass_s":             {c["engine_golden_pass_seconds_total"], "s"},
		"fault.snapshot_materializations": {c["engine_snapshot_materializations_total"], "count"},
		"fault.scalar_fallbacks":          {c["engine_scalar_fallbacks_total"], "count"},
		"fault.iss_experiments":           {c["iss_engine_experiments_total"], "count"},
		"rtl.cycles_per_s":                {rtlRate, "cycles/s"},
		"rtl.golden_cycles":               {float64(cycles), "cycles"},
		"iss.inst_per_s":                  {issRate, "inst/s"},
		"iss.golden_insts":                {float64(insts), "inst"},
		"runtime.alloc_mb_per_kexp":       {safeDiv(t1.Mem.AllocMB, float64(t1.Experiments)/1000), "MB/kexp"},
		"runtime.gc_cycles":               {float64(t1.Mem.GC), "count"},
		"runtime.gc_pause_ms":             {t1.Mem.PauseMs, "ms"},
	}
	var stages map[string]float64
	var engineS map[string]float64
	var engineExps map[string]int
	var builds int
	var buildS float64
	if top == 6 {
		stages = reps[5][0].Stages
		t6 := reps[6][0]
		engineS, engineExps, builds, buildS = t6.EngineS, t6.EngineExps, t6.Builds, t6.BuildS
	}
	m["jobs.golden_s"] = metric{stages["golden"], "s"}
	m["jobs.plan_s"] = metric{stages["plan"], "s"}
	m["jobs.execute_s"] = metric{stages["execute"], "s"}
	m["jobs.assemble_s"] = metric{stages["assemble"], "s"}
	m["campaign.runner_builds"] = metric{float64(builds), "count"}
	m["campaign.runner_build_s"] = metric{buildS, "s"}
	m["fault.engine_s"] = metric{engineS["rtl"], "s"}
	m["fault.exp_per_s"] = metric{safeDiv(float64(engineExps["rtl"]), engineS["rtl"]), "experiments/s"}
	m["fault.iss_engine_s"] = metric{engineS["iss"], "s"}
	return emit(verdict{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m})
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
