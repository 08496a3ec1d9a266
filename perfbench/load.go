package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
)

// tierNames are the entry points of the traced run, top to bottom;
// tier 0 is the untraced end-to-end run.
var tierNames = []string{
	"HTTP, durable sharded service (untraced)",
	"HTTP, durable sharded service",
	"Manager.Submit+Wait, durable sharded",
	"Manager.Submit+Wait, in-memory sharded",
	"jobs.ExecuteSharded",
	"jobs.ExecuteObs + stage tracer",
	"engine: RunnerFor + CampaignStopContext",
}

// load is one process's pass over the list at one tier.
type load struct {
	tier  int
	setup []float64
	wall  float64
	res   []result
	vs    []verified
	bad   map[int]string // result index → first failed check
	// global lists failed checks that belong to no single campaign.
	global []string
	// writes counts the restart-replay write phase's campaigns.
	writes int

	counters map[string]float64 // window deltas of the obs registry
	mem      memDelta
	rss      float64
	stages   map[string]float64 // tier 5: summed stage seconds
	engine   *engineTier        // tier 6
	top      tier1Figures       // tier 1
}

func (l *load) fail(i int, err error) {
	if _, ok := l.bad[i]; !ok {
		l.bad[i] = err.Error()
	}
}

// experiments sums the injections of the outcomes that passed every
// check (the engine tier counts its executed experiments).
func (l *load) experiments() int {
	n := 0
	for i, r := range l.res {
		if _, bad := l.bad[i]; bad {
			continue
		}
		if l.vs[i].out != nil {
			n += l.vs[i].out.Injections
		} else {
			n += r.experiments
		}
	}
	return n
}

func (l *load) failed() int { return len(l.bad) + len(l.global) }

func (l *load) attempted() int { return len(l.res) + l.writes }

// report prints the first few failures to standard error.
func (l *load) reportFailures() {
	shown := 0
	for i, msg := range l.bad {
		if shown == 5 {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: tier %d campaign %d (%s): %s\n", l.tier, i, l.res[i].req.Workload, msg)
		shown++
	}
	for _, msg := range l.global {
		fmt.Fprintf(os.Stderr, "perfbench: tier %d: %s\n", l.tier, msg)
	}
}

type memDelta struct {
	AllocMB float64 `json:"alloc_mb"`
	GC      uint32  `json:"gc"`
	PauseMs float64 `json:"pause_ms"`
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := memStats()
	return memDelta{
		AllocMB: float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		GC:      b.NumGC - a.NumGC,
		PauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// openTier boots tier n. dir is the data directory of the durable tiers.
func openTier(n int, dir string) (tier, *obs.Registry, error) {
	switch n {
	case 0, 1, 2:
		svc, err := openService(dir, n < 2)
		if err != nil {
			return nil, nil, err
		}
		if n < 2 {
			return newHTTPTier(svc), svc.reg, nil
		}
		return managerTier{svc}, svc.reg, nil
	case 3:
		svc, err := openService("", false)
		if err != nil {
			return nil, nil, err
		}
		return managerTier{svc}, svc.reg, nil
	case 4:
		return shardedTier{}, nil, nil
	case 5:
		reg := obs.NewRegistry()
		return newExecuteTier(reg), reg, nil
	case 6:
		reg := obs.NewRegistry()
		return newEngineTier(reg), reg, nil
	}
	return nil, nil, fmt.Errorf("no tier %d", n)
}

// warmupItems wraps the warm-up requests as single-campaign items.
func warmupItems(list []item) []item {
	var out []item
	for _, r := range warmups(list) {
		out = append(out, item{r})
	}
	return out
}

// setUp boots tier n on a fresh data directory and runs the warm-up, the
// part of a run setup_s times.
func setUp(n int, list []item) (tier, *obs.Registry, string, float64, error) {
	dir, err := workDir("data")
	if err != nil {
		return nil, nil, "", 0, err
	}
	start := time.Now()
	t, reg, err := openTier(n, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", 0, err
	}
	res, _ := drive(context.Background(), t, warmupItems(list), clients)
	secs := time.Since(start).Seconds()
	if err := firstErr(res); err != nil {
		t.close()
		os.RemoveAll(dir)
		return nil, nil, "", 0, fmt.Errorf("warm-up: %w", err)
	}
	return t, reg, dir, secs, nil
}

// setupOnce is one setup_s sample in a fresh process.
func setupOnce(list []item) (float64, error) {
	t, _, dir, secs, err := setUp(0, list)
	if err != nil {
		return 0, err
	}
	t.close()
	return secs, os.RemoveAll(dir)
}

// replayPasses is how many times restart-replay reopens a copy of the
// written data directory and resubmits the whole list to it.
const replayPasses = 5

// runLoad executes the list through tier n after setting the tier up,
// times the window and checks every outcome. On restart-replay the list
// is first written through the HTTP service; then each of replayPasses
// passes reopens a fresh copy of the closed data directory (the timed
// set-up) and resubmits the list, which the store must serve unchanged.
func runLoad(n int, w workload, list []item) (*load, error) {
	l := &load{tier: n, bad: map[int]string{}, counters: map[string]float64{}}
	if w.name != "restart-replay" {
		t, reg, dir, secs, err := setUp(n, list)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		l.setup = []float64{secs}
		l.pass(t, reg, list, nil)
		if n == 1 {
			return l, l.measureTop(dir)
		}
		return l, nil
	}
	written, dir, err := writePhase(l, list)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for i := 0; i < replayPasses; i++ {
		cp, err := workDir("reopen")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(cp)
		if err := copyDir(dir, cp); err != nil {
			return nil, err
		}
		start := time.Now()
		t, reg, err := openTier(n, cp)
		if err != nil {
			return nil, err
		}
		l.setup = append(l.setup, time.Since(start).Seconds())
		l.pass(t, reg, list, written)
		if n == 1 && i == replayPasses-1 {
			return l, l.measureTop(cp)
		}
	}
	return l, nil
}

// pass drives the list once through a set-up tier, closes it and checks
// the outcomes; written, when set, holds the outcomes every served one
// must equal, byte for byte, with no campaign executed.
func (l *load) pass(t tier, reg *obs.Registry, list []item, written []verified) {
	var before map[string]float64
	if reg != nil {
		before = scrape(reg)
	}
	var spansBefore int
	et := executeTierOf(t)
	if et != nil {
		spansBefore = len(et.tr.Spans())
	}
	m0 := memStats()
	res, wall := drive(context.Background(), t, list, clients)
	mem := memSince(m0)
	l.mem.AllocMB += mem.AllocMB
	l.mem.GC += mem.GC
	l.mem.PauseMs += mem.PauseMs
	l.rss = peakRSSMB()
	l.wall += wall
	var counters map[string]float64
	if reg != nil {
		counters = delta(before, scrape(reg))
		for k, v := range counters {
			l.counters[k] += v
		}
	}
	if et != nil {
		if l.stages == nil {
			l.stages = map[string]float64{}
		}
		for _, sp := range et.tr.Spans()[spansBefore:] {
			l.stages[sp.Stage] += sp.Seconds
		}
	}
	if e, ok := t.(*engineTier); ok {
		l.engine = e
	}
	t.close()

	base := len(l.res)
	l.res = append(l.res, res...)
	l.vs = append(l.vs, make([]verified, len(res))...)
	for i, r := range res {
		k := base + i
		switch {
		case r.err != nil:
			l.fail(k, r.err)
		case l.tier == 6:
			if n, _ := r.req.Normalize(); n.Engine != "hybrid" && r.experiments != n.Nodes*len(n.Models) {
				l.fail(k, fmt.Errorf("engine ran %d of %d experiments", r.experiments, n.Nodes*len(n.Models)))
			}
		default:
			v, err := checkOutcome(r.req, r.body)
			if err != nil {
				l.fail(k, err)
				continue
			}
			l.vs[k] = v
			if written != nil && written[i].digest != v.digest {
				l.fail(k, fmt.Errorf("served bytes differ from the write phase"))
			}
		}
	}
	if written != nil && counters["jobs_executed_total"] != 0 {
		l.global = append(l.global, fmt.Sprintf("reopened service executed %v campaigns, want 0", counters["jobs_executed_total"]))
	}
}

func executeTierOf(t tier) *executeTier {
	switch t := t.(type) {
	case *executeTier:
		return t
	case *engineTier:
		return t.executeTier
	}
	return nil
}

// writePhase runs restart-replay's list through a fresh durable HTTP
// service and returns the verified outcomes and the closed data dir.
func writePhase(l *load, list []item) ([]verified, string, error) {
	dir, err := workDir("write")
	if err != nil {
		return nil, "", err
	}
	svc, err := openService(dir, true)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	t := newHTTPTier(svc)
	res, _ := drive(context.Background(), t, list, clients)
	t.close()
	l.writes = len(res)
	vs := make([]verified, len(res))
	for i, r := range res {
		err := r.err
		if err == nil {
			vs[i], err = checkOutcome(r.req, r.body)
		}
		if err != nil {
			l.global = append(l.global, fmt.Sprintf("write phase campaign %d: %v", i, err))
		}
	}
	return vs, dir, nil
}
