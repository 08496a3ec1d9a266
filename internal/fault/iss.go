package fault

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
)

// This file implements the ISS campaign engine: a CampaignEngine over
// the functional emulator in internal/iss. The paper's central claim is
// that ISS-level injection predicts RTL-level failure probability well
// enough to calibrate via Equation (1); this engine is the prediction
// side of that trade. It runs the same experiment list as the RTL
// engine — same node identities, same fault models, same off-core
// golden-trace classification — but executes each run on the emulator,
// which has no RTL signals to force. Every RTL node is therefore mapped
// onto an architectural victim (a register bit, chosen deterministically
// from the node's identity) and the fault model's semantics are applied
// there: a coarse microarchitectural abstraction, cheap and
// deterministic, whose prediction error is exactly what the hybrid
// router's RTL audits measure and bound.
//
// Timebase: the emulator has no clock, so ticks are executed
// instructions. A standalone ISSRunner interprets every instant
// (InjectAtCycle, transient schedules, budgets, latencies) in
// instructions. Under the hybrid router the engine is instead pinned to
// the RTL cycle timebase (cycleRef > 0): experiment instants arrive in
// RTL cycles and are mapped onto instruction indices by the ratio of
// the two golden-run lengths, and reported Result.InjectAt echoes the
// RTL-cycle input so hybrid outcome rows stay in one currency.
//
// Campaign calls: RunOne is the scalar reference. A campaign call on a
// checkpointed runner first runs one golden pass from the checkpoint
// (witnessPass) that settles every permanent-model experiment whose
// forcing never changes a bit and forks the rest from a pass snapshot
// at their activation step — the ISS form of the activation gating the
// RTL engine applies in batch.go, and exact for the same kind of reason.

// ISSRunner executes fault-injection experiments on the instruction-set
// simulator. It satisfies CampaignEngine; see Runner for the RTL
// counterpart.
type ISSRunner struct {
	prog   *asm.Program
	opts   Options
	golden mem.Trace
	// GoldenInsts is the clean run's length in executed instructions —
	// the ISS engine's timebase.
	GoldenInsts uint64
	// GoldenStatus is the clean run's terminal status.
	GoldenStatus iss.Status
	budget       uint64

	// cycleRef, when nonzero, pins the engine to the RTL cycle timebase:
	// experiment instants are RTL cycles out of a golden run of cycleRef
	// cycles, mapped onto instruction indices by the golden-length
	// ratio. Zero means instants are instruction indices already.
	cycleRef uint64
	// injectAt is the fixed injection instant in instructions;
	// injectExt is the same instant in the externally visible timebase
	// (RTL cycles when pinned, instructions otherwise).
	injectAt  uint64
	injectExt uint64
	// pulseTicks is the SETPulse hold window in instructions.
	pulseTicks uint64

	baseImg *mem.Image

	ckptOnce sync.Once
	ckpt     *issCheckpoint

	nodesOnce [2]sync.Once
	nodesVal  [2][]NodeInfo

	met issMetrics
}

// issMetrics is the ISS engine's work ledger, the counterpart of the RTL
// engine's engineMetrics. Every handle is a nil-safe no-op without a
// registry; the counts only observe and never reach a result.
type issMetrics struct {
	// experiments counts every experiment a campaign call classified,
	// whichever path (gated lane or RunOne) resolved it.
	experiments *obs.Counter
	// witnessPasses counts golden passes: one per checkpointed campaign
	// call holding at least one permanent-model experiment.
	witnessPasses *obs.Counter
	// lanesPlanned/Free/Activated follow the gating funnel: experiments
	// the pass covers, those finalized as the golden run without
	// simulation, and those forked from a pass snapshot.
	lanesPlanned   *obs.Counter
	lanesFree      *obs.Counter
	lanesActivated *obs.Counter
	// goldenInsts is the instructions the passes executed; laneInsts the
	// instructions experiment simulations executed from their start
	// state (pass snapshot, checkpoint or reset).
	goldenInsts *obs.Counter
	laneInsts   *obs.Counter
}

func newISSMetrics(r *obs.Registry) issMetrics {
	return issMetrics{
		experiments: r.Counter("iss_engine_experiments_total",
			"Fault-injection experiments executed and classified by the ISS prediction engine."),
		witnessPasses: r.Counter("iss_engine_witness_passes_total",
			"ISS golden passes: one per checkpointed campaign call with at least one permanent-model experiment."),
		lanesPlanned: r.Counter("iss_engine_lanes_planned_total",
			"ISS experiments resolved from their campaign call's golden pass."),
		lanesFree: r.Counter("iss_engine_lanes_free_total",
			"ISS lanes whose forcing never changed a bit, finalized from the golden pass without simulation."),
		lanesActivated: r.Counter("iss_engine_lanes_activated_total",
			"ISS lanes forked from a golden-pass snapshot at or before their activation step."),
		goldenInsts: r.Counter("iss_engine_golden_pass_instructions_total",
			"Instructions executed by ISS golden passes."),
		laneInsts: r.Counter("iss_engine_lane_instructions_total",
			"Instructions executed by ISS experiment simulations from their pass snapshot, checkpoint or reset."),
	}
}

// NewISSRunner builds the golden reference by running the program on a
// clean emulator. cycleRef pins the engine to an external RTL cycle
// timebase (the RTL golden run's length in cycles) and fixedCycle is
// then the fixed injection instant in that timebase; both zero leave
// the engine in its native instruction timebase, where Options
// instants are interpreted as instruction indices.
func NewISSRunner(p *asm.Program, opts Options, cycleRef, fixedCycle uint64) (*ISSRunner, error) {
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
	r := &ISSRunner{prog: p, opts: opts, cycleRef: cycleRef, met: newISSMetrics(opts.Obs)}
	r.baseImg = m.Snapshot()
	cpu := r.freshCPU()
	st := cpu.Run(200_000_000)
	if st != iss.StatusExited {
		return nil, fmt.Errorf("fault: ISS golden run did not exit: %v", st)
	}
	r.golden = cpu.Bus.Trace
	r.GoldenInsts = cpu.Icount
	r.GoldenStatus = st
	switch {
	case cycleRef != 0:
		r.injectExt = fixedCycle
		r.injectAt = r.mapTicks(fixedCycle)
	case opts.InjectAtFraction > 0:
		r.injectAt = uint64(opts.InjectAtFraction * float64(r.GoldenInsts))
		r.injectExt = r.injectAt
	default:
		r.injectAt = opts.InjectAtCycle
		r.injectExt = r.injectAt
	}
	r.opts.InjectAtCycle = r.injectExt
	r.budget = r.GoldenInsts*r.opts.BudgetFactor + r.opts.ExtraCycles
	r.pulseTicks = r.opts.PulseCycles
	if cycleRef != 0 {
		if r.pulseTicks = r.mapTicks(r.opts.PulseCycles); r.pulseTicks == 0 {
			r.pulseTicks = 1
		}
	}
	return r, nil
}

func (r *ISSRunner) freshCPU() *iss.CPU {
	return iss.New(mem.NewBus(r.baseImg.Fork()), r.prog.Entry)
}

// mapTicks converts an externally-timed instant into an instruction
// index: the identity in native mode, the golden-length ratio when the
// engine is pinned to the RTL cycle timebase. Golden runs are bounded
// by the 2e8-instruction budget, so the product cannot overflow.
func (r *ISSRunner) mapTicks(c uint64) uint64 {
	if r.cycleRef == 0 {
		return c
	}
	return c * r.GoldenInsts / r.cycleRef
}

// Golden returns the clean off-core trace.
func (r *ISSRunner) Golden() *mem.Trace { return &r.golden }

// GoldenTicks returns the golden run length in the engine's external
// timebase: RTL cycles when pinned, executed instructions otherwise.
func (r *ISSRunner) GoldenTicks() uint64 {
	if r.cycleRef != 0 {
		return r.cycleRef
	}
	return r.GoldenInsts
}

// Nodes enumerates the injectable nodes of a target — the identical
// list the RTL engine yields, because node identity is a property of
// the design, not the engine.
func (r *ISSRunner) Nodes(target Target) []NodeInfo {
	i := 0
	if target == TargetCMEM {
		i = 1
	}
	r.nodesOnce[i].Do(func() {
		r.nodesVal[i] = enumerateNodes(r.prog.Entry, target)
	})
	return r.nodesVal[i]
}

// ScheduleTransients assigns transient experiments their instants over
// [fixed instant, golden length) in the engine's external timebase,
// keyed by (seed, absolute index). When pinned to the RTL timebase the
// window and sampler match the RTL engine's exactly, so both engines
// schedule the byte-identical instants for the same experiment list.
func (r *ISSRunner) ScheduleTransients(exps []Experiment, seed int64) {
	lo, hi := r.injectExt, r.GoldenTicks()
	for i := range exps {
		if exps[i].Model.Transient() {
			exps[i].AtCycle = transientCycle(seed, i, lo, hi)
		}
	}
}

// issCheckpoint is the forkable golden-run state at the fixed injection
// instant: the full architectural state (the CPU is a value type apart
// from its bus), the memory image, and the off-core trace position.
type issCheckpoint struct {
	cpu      iss.CPU // Bus and OnInst nilled; restored per fork
	img      *mem.Image
	writes   int
	exited   bool
	exitCode uint32
}

// Checkpointed reports whether experiments fork from the golden-run
// checkpoint instead of re-emulating from reset.
func (r *ISSRunner) Checkpointed() bool {
	return !r.opts.NoCheckpoint && r.injectAt != 0
}

// PrepareCheckpoint captures the checkpoint eagerly (benchmarks call it
// to keep the one-time warm-up out of timed regions).
func (r *ISSRunner) PrepareCheckpoint() { r.checkpoint() }

func (r *ISSRunner) checkpoint() *issCheckpoint {
	if !r.Checkpointed() {
		return nil
	}
	r.ckptOnce.Do(func() { r.ckpt = r.capture() })
	return r.ckpt
}

func (r *ISSRunner) capture() *issCheckpoint {
	cpu := r.freshCPU()
	bus := cpu.Bus
	for cpu.Icount < r.injectAt && cpu.Status() == iss.StatusRunning {
		cpu.Step()
	}
	snap := *cpu
	snap.Bus, snap.OnInst = nil, nil
	return &issCheckpoint{
		cpu:      snap,
		img:      bus.Mem.Snapshot(),
		writes:   len(bus.Trace.Writes),
		exited:   bus.Trace.Exited,
		exitCode: bus.Trace.ExitCode,
	}
}

// victim is the architectural injection point an RTL node maps onto: a
// register (g1-g7 or the current window's r8-r31 — never g0, which
// reads zero architecturally) and a bit position. The mapping is a
// fixed hash of the node's identity so the same node perturbs the same
// state in every process — another face of the determinism rule.
type victim struct {
	reg int
	bit uint
}

func victimOf(n rtl.Node) victim {
	h := splitmix64(strHash(n.Name) + uint64(n.Word)*0x9e3779b97f4a7c15)
	return victim{reg: 1 + int(h%31), bit: uint(n.Bit) & 31}
}

// strHash is FNV-1a over the node name — stable, dependency-free, and
// frozen for the same reason splitmix64 is.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func (v victim) read(cpu *iss.CPU) uint32 { return cpu.Reg(v.reg) >> v.bit & 1 }

func (v victim) force(cpu *iss.CPU, bit uint32) {
	old := cpu.Reg(v.reg)
	cpu.SetReg(v.reg, old&^(1<<v.bit)|bit<<v.bit)
}

func (v victim) flip(cpu *iss.CPU) {
	cpu.SetReg(v.reg, cpu.Reg(v.reg)^(1<<v.bit))
}

// armAt returns the externally-timed instant at which the experiment's
// fault is applied: the sampled per-experiment instant for transient
// models, the fixed instant otherwise.
func (r *ISSRunner) armAt(e Experiment) uint64 {
	if e.Model.Transient() {
		return e.AtCycle
	}
	return r.injectExt
}

// RunOne executes a single injection experiment on the emulator. The
// structure mirrors Runner.RunOne: fork from the golden checkpoint when
// the instant allows it, otherwise re-emulate from reset, then advance
// to the instant, apply the fault model at the node's architectural
// victim, and classify against the golden off-core trace. It is the
// scalar reference every campaign path must reproduce byte for byte.
func (r *ISSRunner) RunOne(e Experiment) Result {
	atExt := r.armAt(e)
	at := r.mapTicks(atExt)
	ck := r.checkpoint()
	if ck != nil && at < r.injectAt {
		ck = nil // transient sampled before the fork point
	}
	var cpu *iss.CPU
	start := 0
	if ck != nil {
		c := ck.cpu
		cpu = &c
		cpu.Bus = mem.NewBus(ck.img.Fork())
		cpu.Bus.Trace.Exited, cpu.Bus.Trace.ExitCode = ck.exited, ck.exitCode
		start = ck.writes
	} else {
		cpu = r.freshCPU()
	}
	from := cpu.Icount
	c := watchTrace(&r.golden, cpu.Bus, func() uint64 { return cpu.Icount }, start)
	res := r.finish(cpu, c, e, at, atExt)
	r.met.laneInsts.Add(float64(cpu.Icount - from))
	return res
}

// finish advances the clean emulation to the injection instant, applies
// the fault model at the node's victim and runs to classification.
// Permanent models hold the victim bit at their held value (see heldBit)
// before every instruction; a BitFlip mutates state once; a SETPulse
// holds the complement of the bit's value at the instant for the pulse
// window and then releases.
func (r *ISSRunner) finish(cpu *iss.CPU, c *comparator, e Experiment, at, atExt uint64) Result {
	for cpu.Icount < at && cpu.Status() == iss.StatusRunning {
		cpu.Step()
	}
	v := victimOf(e.Node.Node)
	switch e.Model {
	case rtl.BitFlip:
		v.flip(cpu)
		return r.settle(cpu, c, e, v, 0, 0, at, atExt)
	case rtl.SETPulse:
		return r.settle(cpu, c, e, v, v.read(cpu)^1, cpu.Icount+r.pulseTicks, at, atExt)
	}
	return r.settle(cpu, c, e, v, heldBit(e.Model, v, cpu), math.MaxUint64, at, atExt)
}

// heldBit is the value a permanent model holds its victim bit at: the
// stuck value, or for an open line the value the bit carried at the
// injection instant, where cpu must be positioned.
func heldBit(m rtl.FaultModel, v victim, cpu *iss.CPU) uint32 {
	switch m {
	case rtl.StuckAt0:
		return 0
	case rtl.StuckAt1:
		return 1
	}
	return v.read(cpu)
}

// settle runs a faulted emulation to classification: while Icount is
// below holdUntil the victim bit is forced to held before every
// instruction. Latency and run length are computed in instructions and
// the reported InjectAt echoes the external instant.
func (r *ISSRunner) settle(cpu *iss.CPU, c *comparator, e Experiment, v victim, held uint32,
	holdUntil, at, atExt uint64) Result {
	res := Result{
		Fault:    rtl.Fault{Node: e.Node.Node, Model: e.Model},
		Unit:     e.Node.Unit,
		Latency:  -1,
		InjectAt: atExt,
	}
	for cpu.Status() == iss.StatusRunning && cpu.Icount < r.budget &&
		(r.opts.NoEarlyExit || c.mismatchAt < 0) {
		if cpu.Icount < holdUntil {
			v.force(cpu, held)
		}
		cpu.Step()
	}
	classifyRun(&res, &r.golden, cpu.Status(), cpu.Icount, cpu.Bus, c, at)
	return res
}

// issSnapInterval is the spacing, in emulator steps, of the golden-state
// snapshots the call's pass takes. It bounds an activated lane's replay
// of clean execution before its forcing first bites to this many steps.
// Shorter intervals buy little: lanes that activate early gain nothing
// from a closer snapshot and pay for the extra copies.
const issSnapInterval = 256

// issSnap is one periodic golden-state snapshot of the pass.
type issSnap struct {
	cpu    iss.CPU // Bus nil
	img    *mem.Image
	writes int // absolute golden write index at the snapshot
}

// issPass is the witnessed golden continuation of one ISS campaign call:
// the periodic snapshots, and per experiment of the call the pass step
// at which its forcing first changes state. It is built before dispatch
// and only read afterwards, so concurrent workers share it unlocked.
type issPass struct {
	ck    *issCheckpoint
	end   uint64 // golden Icount at program exit
	snaps []issSnap
	// act is indexed like the call's experiments: the activation step
	// of a gated lane, laneFree for one whose forcing never changes a
	// bit, laneScalar for an experiment the pass does not cover.
	act []int64
}

const (
	laneFree   = -1
	laneScalar = -2
)

// gated reports whether the pass can resolve an experiment: the
// permanent models, whose forcing writes the victim bit only while it
// differs from the held value. A BitFlip writes unconditionally and a
// SETPulse's window is its own instant, so both stay on RunOne.
func gated(m rtl.FaultModel) bool {
	return m == rtl.StuckAt0 || m == rtl.StuckAt1 || m == rtl.OpenLine
}

// witnessPass runs the call's one golden continuation from the
// checkpoint. The ISS forcing is write-side and conditional: a
// permanent lane's force rewrites its victim bit before each step with
// the value it already holds until the first step at which the golden
// current-window bit differs from the held value. Up to that step the
// faulted run is the golden run, so a lane that never sees a
// difference is the golden run to exit, and any other lane may start
// from any golden snapshot at or before its activation step. The pass
// records that step for every gated lane — steps, not Icount, because
// annulled delay slots consume a step without advancing Icount — and a
// CPU + memory snapshot every issSnapInterval steps. It returns nil
// when the runner is not checkpointed or the call has no gated lane.
func (r *ISSRunner) witnessPass(exps []Experiment) *issPass {
	ck := r.checkpoint()
	if ck == nil {
		return nil
	}
	p := &issPass{ck: ck, act: make([]int64, len(exps))}
	// need[b][reg] holds the bits whose first golden step with value b
	// some lane is waiting for: a lane holding h activates on h^1.
	var need [2][32]uint32
	planned := 0
	for i, e := range exps {
		p.act[i] = laneScalar
		if !gated(e.Model) {
			continue
		}
		v := victimOf(e.Node.Node)
		need[heldBit(e.Model, v, &ck.cpu)^1][v.reg] |= 1 << v.bit
		planned++
	}
	if planned == 0 {
		return nil
	}
	r.met.lanesPlanned.Add(float64(planned))
	var first [2][32][32]int64
	var regs []int
	for reg := 1; reg < 32; reg++ {
		for b := range first {
			for bit := range first[b][reg] {
				first[b][reg][bit] = laneFree
			}
		}
		if need[0][reg]|need[1][reg] != 0 {
			regs = append(regs, reg)
		}
	}

	c := ck.cpu
	cpu := &c
	bus := mem.NewBus(ck.img.Fork())
	cpu.Bus = bus
	bus.Trace.Exited, bus.Trace.ExitCode = ck.exited, ck.exitCode
	mark := func(b uint32, reg int, hit uint32, step int64) {
		need[b][reg] &^= hit
		for ; hit != 0; hit &= hit - 1 {
			first[b][reg][bits.TrailingZeros32(hit)] = step
		}
	}
	for step := int64(0); cpu.Status() == iss.StatusRunning; step++ {
		if step%issSnapInterval == 0 {
			s := issSnap{cpu: *cpu, img: bus.Mem.Snapshot(), writes: ck.writes + len(bus.Trace.Writes)}
			s.cpu.Bus = nil
			p.snaps = append(p.snaps, s)
		}
		if len(regs) > 0 {
			kept := regs[:0]
			for _, reg := range regs {
				x := cpu.Reg(reg)
				if hit := x & need[1][reg]; hit != 0 {
					mark(1, reg, hit, step)
				}
				if hit := ^x & need[0][reg]; hit != 0 {
					mark(0, reg, hit, step)
				}
				if need[0][reg]|need[1][reg] != 0 {
					kept = append(kept, reg)
				}
			}
			regs = kept
		}
		cpu.Step()
	}
	p.end = cpu.Icount
	r.met.witnessPasses.Inc()
	r.met.goldenInsts.Add(float64(p.end - ck.cpu.Icount))

	for i, e := range exps {
		if gated(e.Model) {
			v := victimOf(e.Node.Node)
			p.act[i] = first[heldBit(e.Model, v, &ck.cpu)^1][v.reg][v.bit]
		}
	}
	return p
}

// runGated resolves one experiment of the call from the pass, given its
// activation step act. A free lane is the golden run: no effect, golden
// length. An activated lane forks from the last snapshot at or before
// its activation step and runs the scalar forcing loop, a no-op until
// that step, with the held value of the injection instant — an open
// line's frozen value comes from the checkpoint, not from the snapshot.
// Either way the result is the one RunOne returns.
func (r *ISSRunner) runGated(p *issPass, e Experiment, act int64) Result {
	if act == laneFree {
		r.met.lanesFree.Inc()
		return Result{
			Fault:    rtl.Fault{Node: e.Node.Node, Model: e.Model},
			Unit:     e.Node.Unit,
			Outcome:  OutcomeNoEffect,
			Latency:  -1,
			Cycles:   p.end,
			InjectAt: r.injectExt,
		}
	}
	r.met.lanesActivated.Inc()
	s := &p.snaps[act/issSnapInterval]
	c := s.cpu
	cpu := &c
	cpu.Bus = mem.NewBus(s.img.Fork())
	cpu.Bus.Trace.Exited, cpu.Bus.Trace.ExitCode = p.ck.exited, p.ck.exitCode
	cmp := watchTrace(&r.golden, cpu.Bus, func() uint64 { return cpu.Icount }, s.writes)
	v := victimOf(e.Node.Node)
	res := r.settle(cpu, cmp, e, v, heldBit(e.Model, v, &p.ck.cpu), math.MaxUint64, r.injectAt, r.injectExt)
	r.met.laneInsts.Add(float64(cpu.Icount - s.cpu.Icount))
	return res
}

// Campaign runs the experiments across workers and returns results in
// input order.
func (r *ISSRunner) Campaign(exps []Experiment, workers int) []Result {
	results, _, _ := r.CampaignStopContext(context.Background(), exps, workers, nil, nil)
	return results
}

// CampaignStopContext runs the experiments across workers with the same
// tap/stop/cancellation contract as Runner.CampaignStopContext. On a
// checkpointed runner it first runs the call's one witnessed golden pass
// (witnessPass), from which every permanent-model experiment resolves;
// the rest run on RunOne. The dispatch granule is one experiment either
// way.
func (r *ISSRunner) CampaignStopContext(ctx context.Context, exps []Experiment, workers int,
	tap func(i int, res Result), stop func(done, failures int) bool) ([]Result, []bool, error) {
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
	pass := r.witnessPass(exps)
	err := runIndexed(cctx, len(exps), workers, func(i int) {
		var res Result
		if pass != nil && pass.act[i] != laneScalar {
			res = r.runGated(pass, exps[i], pass.act[i])
		} else {
			res = r.RunOne(exps[i])
		}
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
	})
	if err != nil && ctx.Err() == nil {
		err = nil // halt came from the stop rule: a successful outcome
	}
	return results, ran, err
}
