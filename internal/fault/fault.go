// Package fault implements the RTL fault-injection framework of the
// reproduction: enumeration and sampling of injection nodes over the IU
// and CMEM hierarchies, single-fault experiment execution with early-exit
// golden-trace comparison at the off-core boundary, and parallel campaign
// orchestration.
//
// The experiment design follows the paper's §4.1: single permanent
// hardware faults (stuck-at-0, stuck-at-1, open-line) applied to RTL
// signals at a fixed injection instant; any mismatch in the off-core
// write stream — the point where light-lockstep cores compare — is a
// system failure. Beyond the paper's scope, the same machinery executes
// transient faults (rtl.BitFlip single-event upsets and rtl.SETPulse
// glitches) whose injection instants are sampled deterministically per
// experiment by ScheduleTransients.
package fault

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/sparc"
	"repro/internal/stats"
)

// Target selects the microcontroller unit whose nodes are injected.
type Target int

// Injection targets.
const (
	TargetIU Target = iota
	TargetCMEM
)

func (t Target) String() string {
	if t == TargetCMEM {
		return "CMEM"
	}
	return "IU"
}

// Prefix returns the RTL hierarchy prefix of the target.
func (t Target) Prefix() string {
	if t == TargetCMEM {
		return "cmem."
	}
	return "iu."
}

// Outcome classifies one injection experiment.
type Outcome int

// Experiment outcomes. Everything except OutcomeNoEffect manifests at the
// off-core boundary and counts as a failure in Pf.
const (
	OutcomeNoEffect  Outcome = iota
	OutcomeMismatch          // off-core write differed from the golden run
	OutcomeTruncated         // program ended with missing or extra writes
	OutcomeErrorMode         // processor entered error mode
	OutcomeHang              // cycle budget exhausted without exit
)

func (o Outcome) String() string {
	switch o {
	case OutcomeNoEffect:
		return "no-effect"
	case OutcomeMismatch:
		return "mismatch"
	case OutcomeTruncated:
		return "truncated"
	case OutcomeErrorMode:
		return "error-mode"
	case OutcomeHang:
		return "hang"
	}
	return "outcome?"
}

// IsFailure reports whether the outcome counts as a propagated failure.
func (o Outcome) IsFailure() bool { return o != OutcomeNoEffect }

// NodeInfo is an injectable node annotated with its functional unit.
type NodeInfo struct {
	Node rtl.Node
	Unit sparc.Unit
}

// Result is the outcome of one injection experiment.
type Result struct {
	Fault   rtl.Fault
	Unit    sparc.Unit
	Outcome Outcome
	// Latency is the number of cycles from injection to the first off-core
	// mismatch (propagation latency); -1 when the fault did not manifest
	// as a mismatch while running.
	Latency int64
	// Cycles is the faulted run's length.
	Cycles uint64
	// InjectAt is the cycle at which the fault was applied: the runner's
	// fixed instant for permanent models, the experiment's sampled
	// instant for transient ones.
	InjectAt uint64
}

// Options configures a Runner.
type Options struct {
	// InjectAtCycle is the fixed injection instant (paper: faults "appear
	// at a fixed injection instant"). Zero injects at reset.
	InjectAtCycle uint64
	// InjectAtFraction, when nonzero, positions the injection instant at
	// this fraction of the golden run length (overrides InjectAtCycle).
	// Injecting mid-run matters for the open-line model, whose frozen
	// value is the charge the net carries at that instant.
	InjectAtFraction float64
	// BudgetFactor scales the golden run length into the faulted-run cycle
	// budget (hang detection). Default 3.
	BudgetFactor uint64
	// ExtraCycles is added on top of the scaled budget. Default 10000.
	ExtraCycles uint64
	// PulseCycles is the width of a SETPulse glitch in cycles: the net is
	// forced to the complement of its present value for this many cycles,
	// then released. Zero selects 1 (a single-cycle glitch). Permanent
	// models and BitFlip ignore it.
	PulseCycles uint64
	// NoEarlyExit disables stopping a faulted run at its first off-core
	// mismatch (ablation A1 in DESIGN.md). The classification is
	// identical; only the campaign cost changes.
	NoEarlyExit bool
	// NoCheckpoint disables the checkpointed campaign engine: every
	// experiment then re-simulates the warm-up prefix from reset instead
	// of forking from the golden-run snapshot at the injection instant.
	// Classifications are identical either way; disabling is only useful
	// for debugging the engine or measuring its speedup.
	NoCheckpoint bool
	// NoBatch disables the bit-parallel (PPSFP) campaign engine: every
	// experiment then runs as its own scalar simulation instead of
	// resolving from the campaign call's one witnessed golden pass in
	// batches of up to 64 fault universes (see batch.go and DESIGN.md
	// §10). Every model batches, BitFlip included; with NoBatch every
	// experiment runs on RunOne, the scalar reference. Results are
	// identical; like NoCheckpoint the toggle exists for debugging and
	// the engine-equivalence tests. Batching also requires the
	// checkpointed engine; with NoCheckpoint set or InjectAtCycle zero
	// every experiment is scalar regardless of NoBatch.
	NoBatch bool
	// BatchLanes caps the number of fault universes a batch carries
	// (DESIGN.md §10 ablates 1/8/32/64). Zero selects the full 64 lanes;
	// values above 64 are clamped. One lane still exercises the batched
	// engine (per-lane resolution from the call's shared witnessed
	// pass), with the finest dispatch granule.
	BatchLanes int
	// Obs, when non-nil, receives the engine's counters (experiments,
	// batch-lane funnel, golden-pass throughput). Observation only: it
	// never influences planning, ordering or results, it is excluded from
	// the campaign runner-cache identity, and it never reaches content
	// addressing — a runner with a registry is byte-identical to one
	// without.
	Obs *obs.Registry
}

// Runner executes fault-injection experiments for one program.
type Runner struct {
	prog   *asm.Program
	opts   Options
	golden mem.Trace
	// GoldenCycles is the clean run's length in cycles.
	GoldenCycles uint64
	// GoldenStatus is the clean run's terminal status.
	GoldenStatus iss.Status
	budget       uint64

	// baseImg is the pristine program memory, loaded once per runner;
	// every from-reset run forks it copy-on-write instead of re-writing
	// the image byte stream into a fresh memory.
	baseImg *mem.Image

	// Golden-run checkpoint, captured lazily on first use (the campaign
	// engine forks every experiment from it instead of re-simulating the
	// fault-free prefix up to the injection instant).
	ckptOnce sync.Once
	ckpt     *checkpoint

	// engines pools reusable RTL cores: each campaign worker restores a
	// pooled core in place per experiment instead of rebuilding the whole
	// design graph with leon3.New.
	engines sync.Pool

	// Per-target injection-node enumeration, built once per runner (it
	// used to construct a throwaway core on every call).
	nodesOnce [2]sync.Once
	nodesVal  [2][]NodeInfo

	// met holds the engine's metric handles — no-ops unless Options.Obs
	// was set.
	met engineMetrics
}

// freshCore builds a clean RTL core over a copy-on-write fork of the
// pristine program image (shared by every from-reset experiment and the
// checkpoint capture, so all of them see identical memory).
func (r *Runner) freshCore() (*leon3.Core, *mem.Bus) {
	bus := mem.NewBus(r.baseImg.Fork())
	return leon3.New(bus, r.prog.Entry), bus
}

// NewRunner builds the golden reference by running the program on a clean
// RTL core.
func NewRunner(p *asm.Program, opts Options) (*Runner, error) {
	if opts.BudgetFactor == 0 {
		opts.BudgetFactor = 3
	}
	if opts.ExtraCycles == 0 {
		opts.ExtraCycles = 10000
	}
	if opts.PulseCycles == 0 {
		opts.PulseCycles = 1
	}
	if math.IsNaN(opts.InjectAtFraction) || math.IsInf(opts.InjectAtFraction, 0) ||
		opts.InjectAtFraction < 0 || opts.InjectAtFraction >= 1 {
		return nil, fmt.Errorf("fault: InjectAtFraction %v outside [0,1)", opts.InjectAtFraction)
	}
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	r := &Runner{prog: p, opts: opts, baseImg: m.Snapshot(), met: newEngineMetrics(opts.Obs)}
	core, _ := r.freshCore()
	st := core.Run(200_000_000)
	if st != iss.StatusExited {
		return nil, fmt.Errorf("fault: golden run did not exit: %v", st)
	}
	r.golden = core.Bus.Trace
	r.GoldenCycles = core.Cycles()
	r.GoldenStatus = st
	if opts.InjectAtFraction > 0 {
		r.opts.InjectAtCycle = uint64(opts.InjectAtFraction * float64(r.GoldenCycles))
	}
	r.budget = r.GoldenCycles*opts.BudgetFactor + opts.ExtraCycles
	return r, nil
}

// Golden returns the clean off-core trace.
func (r *Runner) Golden() *mem.Trace { return &r.golden }

// Nodes enumerates the injectable nodes of a target, annotated with their
// functional units. The enumeration is computed once per runner and the
// same slice is returned to every caller; callers must not mutate it.
func (r *Runner) Nodes(target Target) []NodeInfo {
	i := 0
	if target == TargetCMEM {
		i = 1
	}
	r.nodesOnce[i].Do(func() {
		r.nodesVal[i] = enumerateNodes(r.prog.Entry, target)
	})
	return r.nodesVal[i]
}

// SampleNodes draws a deterministic uniform sample of n nodes (statistical
// fault injection). If n >= len(nodes) the full set is returned.
func SampleNodes(nodes []NodeInfo, n int, seed int64) []NodeInfo {
	if n >= len(nodes) {
		return nodes
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(nodes))
	out := make([]NodeInfo, n)
	for i := 0; i < n; i++ {
		out[i] = nodes[perm[i]]
	}
	return out
}

// Experiment is one (node, model) injection.
type Experiment struct {
	Node  NodeInfo
	Model rtl.FaultModel
	// AtCycle is the injection instant of a transient-model experiment
	// (BitFlip, SETPulse); permanent models ignore it and inject at the
	// runner's fixed instant. ScheduleTransients assigns it
	// deterministically; left zero, a transient experiment injects at
	// reset.
	AtCycle uint64
}

// Expand crosses nodes with fault models. The enumeration order —
// models outer, nodes inner — is load-bearing: the shard layer's
// experiment-index currency and the job service's content addressing
// both assume every expansion of the same (nodes, models) pair yields
// the identical sequence.
func Expand(nodes []NodeInfo, models ...rtl.FaultModel) []Experiment {
	out := make([]Experiment, 0, len(nodes)*len(models))
	for _, m := range models {
		for _, n := range nodes {
			out = append(out, Experiment{Node: n, Model: m})
		}
	}
	return out
}

// splitmix64 is the SplitMix64 output scrambler: a fixed, dependency-free
// bijection used to derive per-experiment injection cycles. It must never
// change — sharded campaigns rely on every process sampling the same
// instants.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// transientCycle samples the injection instant of the transient
// experiment at absolute index i: uniform over [lo, hi) keyed by (seed,
// i) alone.
func transientCycle(seed int64, i int, lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	return lo + splitmix64(splitmix64(uint64(seed))+uint64(i))%(hi-lo)
}

// ScheduleTransients assigns every transient-model experiment its
// injection instant: a deterministic uniform sample over [the runner's
// fixed injection instant, the golden run length), keyed by the seed and
// the experiment's absolute index in exps. Keying by absolute index —
// never by worker-local completion or dispatch order — is the
// determinism rule that keeps sharded campaigns byte-identical to
// unsharded ones: any contiguous slice of a scheduled list carries the
// same instants no matter which worker executes it. The window starts at
// the runner's fixed instant so every sampled cycle lies at or beyond
// the golden-run checkpoint and the fork engine stays usable.
func (r *Runner) ScheduleTransients(exps []Experiment, seed int64) {
	lo, hi := r.opts.InjectAtCycle, r.GoldenCycles
	for i := range exps {
		if exps[i].Model.Transient() {
			exps[i].AtCycle = transientCycle(seed, i, lo, hi)
		}
	}
}

// comparator is the early-exit golden-trace comparator state of one
// faulted run: the index of the next expected golden write and the cycle
// of the first off-core mismatch (-1 while none).
type comparator struct {
	mismatchAt int64
	idx        int
}

// watch hooks the comparator onto the bus. start is the index of the next
// expected golden write: 0 for a from-reset run, the checkpoint's write
// count for a forked run (the golden prefix is identical by construction).
func (r *Runner) watch(bus *mem.Bus, core *leon3.Core, start int) *comparator {
	return watchTrace(&r.golden, bus, core.Cycles, start)
}

// runFaulted advances a core with an armed fault until exit, error mode,
// the cycle budget, or (unless NoEarlyExit) the first off-core mismatch.
func (r *Runner) runFaulted(core *leon3.Core, c *comparator) {
	for core.Status() == iss.StatusRunning && core.Cycles() < r.budget &&
		(r.opts.NoEarlyExit || c.mismatchAt < 0) {
		core.StepCycle()
	}
}

// classify maps a finished faulted run onto its outcome and latency.
// injectAt is the instant the fault was armed (latencies are relative to
// it).
func (r *Runner) classify(res *Result, core *leon3.Core, bus *mem.Bus, c *comparator, injectAt uint64) {
	classifyRun(res, &r.golden, core.Status(), core.Cycles(), bus, c, injectAt)
}

// engine is a pooled per-worker execution context: one reusable RTL core
// whose kernel state is restored in place per experiment, so the design
// graph is built once per worker instead of once per experiment.
type engine struct {
	core *leon3.Core
}

// getEngine takes a pooled engine, building one on first use.
func (r *Runner) getEngine() *engine {
	if e, ok := r.engines.Get().(*engine); ok {
		return e
	}
	core, _ := r.freshCore()
	return &engine{core: core}
}

// armAt returns the cycle at which the experiment's fault is applied:
// the sampled per-experiment instant for transient models, the runner's
// fixed injection instant otherwise.
func (r *Runner) armAt(e Experiment) uint64 {
	if e.Model.Transient() {
		return e.AtCycle
	}
	return r.opts.InjectAtCycle
}

// finish takes a core positioned at or before the experiment's injection
// instant (comparator already attached), advances the clean run to that
// instant, applies the fault and runs it to classification. Permanent
// models stay forced to the end of the run; a BitFlip mutates state once
// and the design runs free; a SETPulse holds its forcing for
// Options.PulseCycles cycles and is then released.
func (r *Runner) finish(core *leon3.Core, bus *mem.Bus, c *comparator, e Experiment) Result {
	injectAt := r.armAt(e)
	res := Result{
		Fault:    rtl.Fault{Node: e.Node.Node, Model: e.Model},
		Unit:     e.Node.Unit,
		Latency:  -1,
		InjectAt: injectAt,
	}
	for core.Cycles() < injectAt && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	if err := core.K.Inject(res.Fault); err != nil {
		res.Outcome = OutcomeNoEffect
		return res
	}
	if e.Model == rtl.SETPulse {
		// Hold the glitch for the pulse window, then release the net. The
		// budget, terminal-status and early-exit bounds all apply inside
		// the window too, so a pulse can never outlive the run.
		for end := core.Cycles() + r.opts.PulseCycles; core.Cycles() < end &&
			core.Status() == iss.StatusRunning && core.Cycles() < r.budget &&
			(r.opts.NoEarlyExit || c.mismatchAt < 0); {
			core.StepCycle()
		}
		core.K.ClearFaults()
	}
	r.runFaulted(core, c)
	r.classify(&res, core, bus, c, injectAt)
	return res
}

// runFromReset executes one experiment on a freshly reset core: finish
// simulates the warm-up prefix up to the injection instant, arms the
// fault and continues under the comparator.
func (r *Runner) runFromReset(core *leon3.Core, bus *mem.Bus, e Experiment) Result {
	c := r.watch(bus, core, 0)
	return r.finish(core, bus, c, e)
}

// RunOne executes a single injection experiment. When the checkpointed
// engine is active the experiment forks from the golden-run snapshot at
// the runner's fixed injection instant; otherwise it re-simulates from
// reset. Transient experiments whose sampled instant lies at or beyond
// that fork point ride the same engine (the clean continuation is
// advanced to the sampled cycle before arming); one sampled earlier
// falls back to from-reset execution so the injection is never skipped.
// Both paths reuse a pooled core restored in place. All engine
// combinations produce identical results.
func (r *Runner) RunOne(e Experiment) Result {
	ck := r.checkpoint()
	if ck != nil && e.Model.Transient() && e.AtCycle < r.opts.InjectAtCycle {
		ck = nil
	}
	eng := r.getEngine()
	defer r.engines.Put(eng)
	core := eng.core
	if ck != nil {
		bus := mem.NewBus(ck.img.Fork())
		core.Bus = bus
		if res, ok := r.runForked(core, bus, ck, e); ok {
			return res
		}
		// A restore failure never happens with a same-program core; fall
		// through to the from-reset path for robustness.
	}
	bus := mem.NewBus(r.baseImg.Fork())
	core.Bus = bus
	core.Reset()
	return r.runFromReset(core, bus, e)
}

// Campaign runs the experiments across workers and returns results in
// input order.
func (r *Runner) Campaign(exps []Experiment, workers int) []Result {
	results, _ := r.CampaignContext(context.Background(), exps, workers, nil)
	return results
}

// CampaignContext runs the experiments across workers, honouring ctx:
// cancellation stops the campaign within one experiment granule (workers
// finish the experiment they are on, skip the rest, and the dispatcher
// stops feeding). Results are in input order; experiments that never ran
// are left zero-valued. On cancellation the partial results are returned
// together with ctx.Err().
//
// tap, when non-nil, is invoked as each experiment completes with its
// index and result. It is called concurrently from worker goroutines and
// must be safe for concurrent use.
func (r *Runner) CampaignContext(ctx context.Context, exps []Experiment, workers int, tap func(i int, res Result)) ([]Result, error) {
	results, _, err := r.CampaignStopContext(ctx, exps, workers, tap, nil)
	return results, err
}

// CampaignStopContext is CampaignContext plus sequential early stopping
// and completion tracking, the engine entry point of sharded and adaptive
// campaigns. After every completed experiment the stop rule — when
// non-nil — is consulted with the running completion and failure counts;
// once it returns true the campaign halts within one dispatch granule
// per worker, exactly like a context cancellation, but with a nil error:
// stopping adaptively is a successful outcome, not an abort.
//
// The dispatch granule is one batch of up to 64 experiments under the
// bit-parallel engine (see batch.go), or one experiment when batching is
// off. Every batch of the call resolves its lanes from one witnessed
// golden pass, run before dispatch. A stop or cancellation therefore
// overshoots by at most one batch per worker; every experiment a
// finished granule covered is tallied and reported, so the stop rule's
// decisions remain a function of completed experiment counts only.
//
// The returned ran bitmap marks which experiments actually executed, so
// callers of a stopped or cancelled campaign can distinguish a completed
// zero-valued Result from an experiment that never ran. ctx cancellation
// still returns the partial results together with ctx.Err().
func (r *Runner) CampaignStopContext(ctx context.Context, exps []Experiment, workers int, tap func(i int, res Result), stop func(done, failures int) bool) ([]Result, []bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(exps))
	ran := make([]bool, len(exps))
	cctx := ctx
	var cancel context.CancelFunc
	if stop != nil {
		cctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	var mu sync.Mutex
	done, failures := 0, 0
	deliver := func(i int, res Result) {
		r.met.experiments.Inc()
		results[i] = res
		mu.Lock()
		ran[i] = true
		done++
		if res.Outcome.IsFailure() {
			failures++
		}
		d, f := done, failures
		mu.Unlock()
		if tap != nil {
			tap(i, res)
		}
		if stop != nil && stop(d, f) {
			cancel()
		}
	}
	plan := r.planBatches(exps)
	pass := r.witnessPass(exps, plan)
	err := runIndexed(cctx, len(plan), workers, func(pi int) {
		item := plan[pi]
		if item.lanes == nil {
			deliver(item.idx, r.RunOne(exps[item.idx]))
			return
		}
		for j, res := range r.runBatch(pass, exps, item.lanes) {
			deliver(item.lanes[j], res)
		}
	})
	if err != nil && ctx.Err() == nil {
		// The halt came from the stop rule, not the caller: report success.
		err = nil
	}
	return results, ran, err
}

// runIndexed dispatches n experiment indices across workers under ctx —
// the shared scaffolding of every campaign kind. Cancellation stops the
// dispatch within one granule per worker: each worker finishes the index
// it is on, the feeder stops, and ctx.Err() is returned.
func runIndexed(ctx context.Context, n, workers int, run func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	done := ctx.Done()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				select {
				case <-done:
					return
				default:
				}
				run(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// Pf returns the fraction of experiments whose fault propagated to a
// failure at the off-core boundary.
func Pf(results []Result) float64 {
	if len(results) == 0 {
		return 0
	}
	return float64(Failures(results)) / float64(len(results))
}

// Failures counts the experiments whose fault propagated to a failure.
func Failures(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Outcome.IsFailure() {
			n++
		}
	}
	return n
}

// PfInterval returns the Wilson score confidence interval around Pf at
// confidence level z (1.96 for 95%): the range of true failure
// probabilities compatible with the campaign's sample. Campaigns are
// statistical fault injection (a node sample, not the exhaustive set), so
// every reported Pf carries this sampling uncertainty.
func PfInterval(results []Result, z float64) (lo, hi float64) {
	return stats.WilsonCI(Failures(results), len(results), z)
}

// PfByUnit groups Pf by functional unit.
func PfByUnit(results []Result) map[sparc.Unit]float64 {
	tot := map[sparc.Unit]int{}
	fail := map[sparc.Unit]int{}
	for _, r := range results {
		tot[r.Unit]++
		if r.Outcome.IsFailure() {
			fail[r.Unit]++
		}
	}
	out := map[sparc.Unit]float64{}
	for u, n := range tot {
		out[u] = float64(fail[u]) / float64(n)
	}
	return out
}

// MaxLatency returns the maximum detection latency in cycles over the
// experiments whose fault manifested at a bounded instant (mismatches,
// truncations and error modes; hangs are unbounded and excluded). This is
// Figure 4(b)'s metric: it grows with run length because some faults only
// corrupt data consumed in the program's final phase.
func MaxLatency(results []Result) int64 {
	max := int64(-1)
	for _, r := range results {
		if r.Outcome != OutcomeHang && r.Latency > max {
			max = r.Latency
		}
	}
	return max
}

// OutcomeCounts tallies the outcome distribution.
func OutcomeCounts(results []Result) map[Outcome]int {
	out := map[Outcome]int{}
	for _, r := range results {
		out[r.Outcome]++
	}
	return out
}
