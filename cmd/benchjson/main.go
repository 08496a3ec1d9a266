// Command benchjson runs the repository benchmark suite and distills the
// result into a JSON perf record: benchmark name -> ns/op plus every
// custom metric the benchmarks report (cycles/s, exp/s, Pf-%, ...).
// The committed baseline lives in BENCH_PR6.json; CI runs the 1x smoke
// variant on every change (make bench-json-smoke) so the tool and the
// whole suite stay green, and fresh baselines are cut with
// make bench-json.
//
// With -baseline the run becomes a regression gate (make bench-check):
// every throughput metric (cycles/s, exp/s, inst/s — higher is better)
// present in both the baseline and the current run is compared, and the
// tool exits nonzero when any regresses by more than -max-regress
// (default 15%). Only throughput units participate: ns/op on a shared CI
// runner is too noisy, while the engine's cycles/s and exp/s are the
// quantities the ROADMAP optimizes. With -count N both the baseline cut
// and the gate fold repeated samples best-of for throughput units:
// neighbour load and frequency throttling on shared machines only ever
// slow a run down, so the fastest of N samples is the closest estimate
// of the code's real speed, and a genuine regression shows in all N.
// Absolute numbers are still hardware-sensitive — compare against a
// baseline cut on comparable hardware, or widen -max-regress. Names are
// recorded without go test's -GOMAXPROCS suffix, so a record cut with
// one core count gates runs with another.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is the emitted perf document.
type Record struct {
	Schema     string                        `json:"schema"`
	Command    string                        `json:"command"`
	Go         string                        `json:"go,omitempty"`
	CPU        string                        `json:"cpu,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark regexp passed to go test")
	benchtime := flag.String("benchtime", "1s", "benchtime passed to go test (a duration, or Nx for fixed iterations)")
	count := flag.Int("count", 1, "go test -count; throughput metrics keep the best sample, others are averaged")
	out := flag.String("out", "BENCH_PR6.json", `output path ("-" for stdout)`)
	baseline := flag.String("baseline", "", "compare throughput metrics against this committed record and fail on regression")
	maxRegress := flag.Float64("max-regress", 0.15, "tolerated fractional throughput regression against -baseline")
	flag.Parse()
	// Refuse to overwrite the record we are about to gate against: the
	// write would make the comparison vacuous and clobber the committed
	// baseline. Checked before the (slow) benchmark run.
	if *baseline != "" && *out != "-" && *out == *baseline {
		fmt.Fprintf(os.Stderr, "benchjson: -out and -baseline are both %s; use -out - when gating\n", *baseline)
		os.Exit(1)
	}

	// The run's GOMAXPROCS is pinned explicitly so that parse knows the
	// exact "-N" suffix go test appends to every benchmark name.
	procs := runtime.GOMAXPROCS(0)
	args := []string{"test", "-bench=" + *bench, "-benchtime=" + *benchtime,
		"-count=" + strconv.Itoa(*count), "-cpu=" + strconv.Itoa(procs), "-run=^$", "."}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	// Tee the raw bench output to stderr so long runs show progress and
	// the paper-style artifacts the benchmarks print stay visible.
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	rec := parse(buf.String(), procs)
	if len(rec.Benchmarks) == 0 {
		// An empty record means the regexp matched nothing or the bench
		// output format drifted; exiting 0 would let CI validate nothing
		// and a baseline refresh overwrite the committed record with {}.
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines parsed from go %s\n", strings.Join(args, " "))
		os.Exit(1)
	}
	rec.Command = "go " + strings.Join(args, " ")
	rec.Go = runtime.Version()
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')

	// The gate runs before any write: a failed gate must not replace a
	// record on disk with the regressed measurements.
	if *baseline != "" {
		regressions, err := check(rec, *baseline, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d throughput regression(s) beyond %.0f%% vs %s:\n",
				len(regressions), *maxRegress*100, *baseline)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no throughput regression beyond %.0f%% vs %s\n",
			*maxRegress*100, *baseline)
	}

	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rec.Benchmarks), *out)
}

// throughputUnits are the higher-is-better metrics the regression gate
// compares. Wall-clock ns/op is deliberately excluded: on shared CI
// machines it regresses with neighbour load, while the engine throughput
// metrics are what the perf work optimizes.
var throughputUnits = map[string]bool{
	"cycles/s": true,
	"exp/s":    true,
	"inst/s":   true,
}

// check compares the current record against a committed baseline and
// returns one line per throughput metric that regressed beyond tol.
// Benchmarks or metrics present on only one side are skipped: the gate
// guards known quantities, it does not freeze the suite's shape.
func check(cur *Record, baselinePath string, tol float64) ([]string, error) {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var base Record
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	var regressions []string
	compared := 0
	for _, name := range sortedKeys(base.Benchmarks) {
		baseMetrics := base.Benchmarks[name]
		curMetrics := cur.Benchmarks[name]
		if curMetrics == nil {
			continue
		}
		for _, unit := range sortedKeys(baseMetrics) {
			if !throughputUnits[unit] {
				continue
			}
			was := baseMetrics[unit]
			now, ok := curMetrics[unit]
			if !ok || was <= 0 {
				continue
			}
			compared++
			if now < was*(1-tol) {
				regressions = append(regressions,
					fmt.Sprintf("%s %s: %.4g -> %.4g (%.1f%% below baseline)",
						name, unit, was, now, 100*(1-now/was)))
			}
		}
	}
	if compared == 0 {
		// A gate that compared nothing would pass vacuously forever — the
		// baseline drifted out from under the suite; fail loudly instead.
		return nil, fmt.Errorf("no throughput metrics shared with %s; refresh the baseline", baselinePath)
	}
	return regressions, nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parse extracts benchmark result lines from go test -bench output. Each
// line reads "BenchmarkName-P  N  v1 unit1  v2 unit2 ..."; every
// value/unit pair becomes a metric. procs is the run's GOMAXPROCS: go
// test appends "-procs" to every name when it is above 1, and exactly
// that suffix is stripped, so records cut on hosts of any core count
// share names (a sub-benchmark such as nodes-64 keeps its own suffix).
// Repeated lines (go test -count > 1) fold per-unit: throughput metrics
// keep the best (maximum) sample — on a shared machine interference can
// only slow a benchmark down, so the max is the least contaminated
// estimate and a genuine code regression still shows in every sample —
// while non-throughput metrics are averaged.
func parse(output string, procs int) *Record {
	rec := &Record{Schema: "bench-json/1", Benchmarks: map[string]map[string]float64{}}
	seen := map[string]map[string]int{}
	for _, line := range strings.Split(output, "\n") {
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			rec.CPU = strings.TrimSpace(v)
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if procs > 1 {
			name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue // not an iteration count; some other output line
		}
		metrics := rec.Benchmarks[name]
		if metrics == nil {
			metrics = map[string]float64{}
			rec.Benchmarks[name] = metrics
			seen[name] = map[string]int{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			unit := f[i+1]
			n := seen[name][unit]
			if throughputUnits[unit] {
				if n == 0 || v > metrics[unit] {
					metrics[unit] = v
				}
			} else {
				metrics[unit] = (metrics[unit]*float64(n) + v) / float64(n+1)
			}
			seen[name][unit] = n + 1
		}
	}
	return rec
}
