package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/jobs"
)

// endToEnd is the --trace 0 run: the workload's list through the HTTP
// service with tracing off, then the correctness checks, then the
// end-to-end metrics.
func endToEnd(o options, w workload, list []item) error {
	if err := printProvenance(o, w); err != nil {
		return err
	}
	// restart-replay times one reopen per replay pass; the other
	// workloads set up in fresh processes, since the runner cache is
	// process-wide.
	var setups []float64
	if w.name != "restart-replay" {
		for i := 0; i < setupSamples-1; i++ {
			var s map[string]float64
			if err := runChild(nil, &s, childArgs(o, "-setup-only")...); err != nil {
				return err
			}
			setups = append(setups, s["setup_s"])
		}
	}
	l, err := runLoad(0, w, list)
	if err != nil {
		return err
	}
	setups = append(setups, l.setup...)

	fid, err := referenceChecks(o, w, l, list)
	if err != nil {
		return err
	}
	if o.seed == defaultSeed {
		if err := pinChecks(o, w, l); err != nil {
			return err
		}
	}
	l.reportFailures()

	var turnaround []float64
	for _, r := range l.res {
		turnaround = append(turnaround, r.turnaround)
	}
	rounded := 0
	for _, v := range l.vs {
		if v.rounded {
			rounded++
		}
	}
	fmt.Printf("campaigns %d, experiments %d, window %.3f s, turnaround samples %d, pf outside its Wilson interval by rounding only: %d\n",
		len(l.res), l.experiments(), l.wall, len(turnaround), rounded)
	return emit(verdict{
		Correct:   l.failed() == 0,
		Attempted: l.attempted(),
		Failed:    l.failed(),
		Metrics: map[string]metric{
			"setup_s":               {median(setups), "s"},
			"exp_per_s":             {float64(l.experiments()) / l.wall, "experiments/s"},
			"turnaround_p50_s":      {quantile(turnaround, 0.5), "s"},
			"turnaround_p90_s":      {quantile(turnaround, 0.9), "s"},
			"peak_rss_mb":           {l.rss, "MB"},
			"iss_disagreement_rate": {fid.disagreementRate(), "fraction"},
			"hybrid_rtl_frac":       {fid.rtlFrac(), "fraction"},
		},
	})
}

// referenceChecks re-executes a seed-keyed sample of the served outcomes
// unsharded in a fresh process and compares bytes, and returns the
// ISS-vs-RTL fidelity: from the run's own hybrid outcomes, or from the
// workload's fidelity probe computed in the same fresh process.
func referenceChecks(o options, w workload, l *load, list []item) (fidelity, error) {
	var fid fidelity
	sample, twins := referenceRequests(o.seed, w, list, l.res)
	var reqs []jobs.Request
	for _, i := range sample {
		reqs = append(reqs, l.res[i].req)
	}
	refs, err := runReference(append(reqs, twins...))
	if err != nil {
		return fid, err
	}
	for k, i := range sample {
		if refs[k].Error != "" {
			l.fail(i, fmt.Errorf("unsharded reference: %s", refs[k].Error))
		} else if _, bad := l.bad[i]; !bad && refs[k].Digest != l.vs[i].digest {
			l.fail(i, fmt.Errorf("served outcome differs from the unsharded in-process execution"))
		}
	}
	if twins == nil {
		for i, v := range l.vs {
			if _, bad := l.bad[i]; !bad && v.out != nil && v.out.Hybrid != nil {
				fid.add(v.out.Hybrid)
			}
		}
	}
	for _, ref := range refs[len(sample):] {
		if ref.Error != "" || ref.Hybrid == nil {
			l.global = append(l.global, "hybrid twin failed: "+ref.Error)
			continue
		}
		fid.add(ref.Hybrid)
	}
	if fid.audited == 0 {
		l.global = append(l.global, "no audited hybrid experiments")
	}
	return fid, nil
}

// pinChecks compares (or, with -pin, records) the default-seed rtl
// outcome digests.
func pinChecks(o options, w workload, l *load) error {
	if o.pin {
		if err := writePins(w.name, l.vs, l.res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pinned %s outcome digests in %s\n", w.name, pinFile)
		return nil
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	bad, checked := checkPins(p, w.name, l.vs, l.res)
	for _, i := range bad {
		l.fail(i, fmt.Errorf("outcome digest differs from %s", pinFile))
	}
	if _, ok := p[w.name]; ok && checked == 0 {
		l.global = append(l.global, "no outcome matched a pinned digest")
	}
	fmt.Printf("pinned digests: %d checked, %d differ\n", checked, len(bad))
	return nil
}

// provenance identifies the code and host behind a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Items      int    `json:"list_items"`
}

func printProvenance(o options, w workload) error {
	src, err := sourceHash()
	if err != nil {
		return err
	}
	b, err := json.Marshal(map[string]provenance{"provenance": {
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: gitCommit(), SourceHash: src,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Items: listSize(w, o.seconds),
	}})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// gitCommit reads HEAD without running git; a checkout without .git
// reports "none" and the source hash identifies the code instead.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file of the checkout,
// in path order, skipping dot directories (.git, .bench_build).
func sourceHash() (string, error) {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
