// Command perfbench is the repository's end-to-end benchmark: a durable,
// sharded campaign service (internal/server over jobs.OpenManager, obs
// registry attached) driven in-process by a closed loop of two clients
// that POST a campaign, follow its NDJSON stream and GET the merged
// outcome. See README.md in this directory.
//
//	bash perfbench/run.sh --workload rtl-permanent --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; with --trace 1
// the run replays the same list through successively lower tiers and
// prints the tier table and the per-layer metrics instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// clients is the closed loop's size, one per core of the reference host.
const clients = 2

// setupSamples is how many times a run sets the service up; setup_s is
// their median.
const setupSamples = 5

// workRoot holds every data directory a run creates, inside the checkout.
const workRoot = ".bench_build/work"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// Child-process modes.
	tier      int
	setupOnly bool
	reference bool
	pin       bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "rtl-permanent, transient, iss-hybrid or restart-replay")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed generates the same campaign list")
	flag.IntVar(&o.seconds, "seconds", 8, "sizes the fixed campaign list to about this many seconds on a 2-core host")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the tiers and reports per-layer metrics")
	flag.IntVar(&o.tier, "tier", -1, "internal: run one tier in this process and print its report")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: set the service up once and print the time")
	flag.BoolVar(&o.reference, "reference", false, "internal: execute the requests on stdin unsharded and print their digests")
	flag.BoolVar(&o.pin, "pin", false, "record the default-seed rtl outcome digests in "+pinFile+" instead of checking them")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.reference {
		return reference()
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	// Refuse to run outside a checkout of the module under test.
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	list := w.gen(o.seed, listSize(w, o.seconds))
	switch {
	case o.setupOnly:
		s, err := setupOnce(list)
		if err != nil {
			return err
		}
		return emit(map[string]float64{"setup_s": s})
	case o.tier >= 0:
		rep, err := runTier(o.tier, w, list)
		if err != nil {
			return err
		}
		return emit(rep)
	case o.trace == 1:
		return traced(o, w, list)
	}
	return endToEnd(o, w, list)
}

// emit prints v as the last line of standard output.
func emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the result object, the last line of every run.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs this binary with args, feeding stdin, and decodes the
// last line of its standard output into out. Its standard error passes
// through.
func runChild(stdin []byte, out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), out)
}

func childArgs(o options, extra ...string) []string {
	return append([]string{
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
	}, extra...)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// workDir makes a fresh directory under workRoot.
func workDir(prefix string) (string, error) {
	return os.MkdirTemp(workRoot, prefix)
}

// copyDir copies a data directory, file by file.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return writeSynced(target, b)
	})
}

// writeSynced writes and fsyncs a file, so the copy's write-back does not
// land inside a timed reopen.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
