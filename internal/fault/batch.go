package fault

import (
	"sort"
	"time"

	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
)

// This file implements the bit-parallel (PPSFP) campaign engine: one
// witnessed golden pass per campaign call resolves every batchable fault
// universe ("lane") of the call at once, and only the lanes whose fault
// is actually read with a differing value ever pay for a scalar
// simulation.
//
// Classic PPSFP packs one gate-level net's value across 64 test patterns
// into a machine word. That transplant is impossible for a word-level
// cycle-based RTL model — a 32-bit adder cannot be evaluated 64-ways
// bitwise — so the bit-parallel dimension here is the *activation
// predicate* instead. Fault forcing in the rtl kernel is strictly
// read-side: an armed fault never mutates raw slab state, it only edits
// the value consumers observe. A faulted universe whose raw state still
// equals the golden run's therefore diverges exactly at the first cycle
// where some process reads the faulted net and the forced bit differs
// from the clean bit. During the call's golden continuation pass, a
// rtl.Witness accumulates per-net read observations (Ones/Zeros masks)
// over the union of every lane's net; whether a lane activates is then
// one AND against its net's accumulator — all 64 bit positions of a net
// checked at once, which is where the 64-way parallelism lives.
//
// The pass drains the accumulators once per batchSnapInterval block, so
// it records one OR-summary per net and block instead of a per-cycle
// waveform. Permanent lanes need no finer grain: their forcing is armed
// from the pass start, so a lane whose first differing read falls in
// block b is still bit-identical to the golden run at the start of b,
// and forking there — from the block's own snapshot, with no replay — is
// exact. SETPulse lanes are armed only inside [at, at+pulse), so while
// any such window is open the pass drains every cycle and records their
// activation cycle exactly.
//
// Lanes that never activate are finalized from the golden trajectory
// without simulating a single faulted cycle. Activated lanes fork a
// scalar continuation from the golden state and run the exact scalar
// engine loop from there — which is why a batched campaign is
// byte-identical to a scalar one (TestEngineEquivalence checks this for
// every fault model). A forked lane that heals — its committed state
// re-equals a golden snapshot and its off-core write position matches —
// is dropped back onto the golden trajectory, or teleported forward to
// its next activating block.

// batchSnapInterval is the spacing of the periodic golden-state
// snapshots taken during the pass, and the length of the blocks its
// activation summaries cover. It bounds lane materialization (at most
// this many replayed clean cycles) and sets the granularity of the
// reconvergence drop check.
const batchSnapInterval = 128

// maxBatchLanes is the lane capacity of one batch: the accumulator words
// do not limit it (each lane checks one bit of its own net), but 64
// keeps batch bookkeeping and stop-rule granularity bounded, and matches
// the PPSFP word width the design is named for.
const maxBatchLanes = 64

// planItem is one dispatch granule of a campaign: a single scalar
// experiment (lanes nil) or a batch of experiment indices.
type planItem struct {
	idx   int
	lanes []int
}

// planBatches partitions a campaign's experiments into dispatch
// granules. Experiments are batchable when the checkpointed engine is on
// and the experiment is a forcing the witnessed pass can reason about:
// the permanent models and SETPulse. BitFlip mutates raw state (its
// effect can propagate through raw register copies without ever being
// "read", so read-witness gating would be unsound), transients sampled
// before the checkpoint cannot fork from it, and invalid nodes must
// reproduce the scalar engine's inject-error result — all of those run
// scalar. Batches are filled in input order; result content is
// independent of the partition, so the plan shape is free to change
// without affecting campaign or shard determinism.
func (r *Runner) planBatches(exps []Experiment) []planItem {
	lanes := r.opts.BatchLanes
	if lanes <= 0 || lanes > maxBatchLanes {
		lanes = maxBatchLanes
	}
	plan := make([]planItem, 0, len(exps))
	if r.opts.NoBatch || !r.Checkpointed() {
		for i := range exps {
			plan = append(plan, planItem{idx: i})
		}
		return plan
	}
	eng := r.getEngine()
	defer r.engines.Put(eng)
	k := eng.core.K

	var cur []int
	flush := func() {
		if len(cur) > 0 {
			r.met.lanesPlanned.Add(float64(len(cur)))
			plan = append(plan, planItem{idx: -1, lanes: cur})
			cur = nil
		}
	}
	for i, e := range exps {
		batchable := e.Model != rtl.BitFlip &&
			!(e.Model.Transient() && e.AtCycle < r.opts.InjectAtCycle) &&
			k.NodeValid(e.Node.Node)
		if !batchable {
			plan = append(plan, planItem{idx: i})
			continue
		}
		cur = append(cur, i)
		if len(cur) == lanes {
			flush()
		}
	}
	flush()
	return plan
}

// lane is one fault universe of a campaign call.
type lane struct {
	e        Experiment
	f        rtl.Fault
	net      int    // witness net index
	bit      uint64 // 1 << Node.Bit
	injectAt uint64
	pulseEnd uint64 // SETPulse window end; 0 for permanent models
	// forcedOne is the armed polarity of the faulted bit. For the
	// charge-sampling models it is derived from sampled, the net's raw
	// word at the injection instant.
	forcedOne bool
	sampled   uint64
	// activateAt is the golden cycle the lane forks at: the start of its
	// first activating block for permanent models, the exact first
	// activation cycle for SETPulse. active is false if no consumer ever
	// read the faulted bit with a differing value.
	active     bool
	activateAt uint64
}

// activatesOn reports whether a golden-pass observation of the lane's
// net activates the lane: some consumer read the faulted bit with the
// polarity the forcing would invert.
func (l *lane) activatesOn(a rtl.WitnessAcc) bool {
	if l.forcedOne {
		return a.Zeros&l.bit != 0
	}
	return a.Ones&l.bit != 0
}

// passSnap is one periodic golden-state snapshot of the pass.
type passSnap struct {
	cycle  uint64
	core   *leon3.Snapshot
	img    *mem.Image
	writes int
}

// callPass is the witnessed golden continuation of one campaign call:
// the lane of every batched experiment (indexed like the call's
// experiment list), the periodic snapshots, and the per-block activation
// summaries every batch of the call resolves its lanes from. It is built
// before dispatch and only read afterwards, so concurrent batches share
// it without locking.
type callPass struct {
	ck         *checkpoint
	start, end uint64 // checkpoint cycle, golden exit cycle
	nNets      int
	// sums holds one OR-summary per (block, net), block-major: entry
	// b*nNets+n covers net n's reads over cycles
	// [start+b*batchSnapInterval, start+(b+1)*batchSnapInterval).
	sums  []rtl.WitnessAcc
	snaps []passSnap
	lanes []lane
}

// witnessPass runs the call's one witnessed golden pass over the union
// of the nets of every batched lane in plan. It returns nil when the
// plan has no batch, or when the pass fails to set up — which never
// happens with a same-program core and plan-validated nodes; the
// batches then resolve through the scalar fallback.
func (r *Runner) witnessPass(exps []Experiment, plan []planItem) *callPass {
	batched := false
	for _, it := range plan {
		batched = batched || it.lanes != nil
	}
	if !batched {
		return nil
	}
	ck := r.checkpoint()
	eng := r.getEngine()
	defer r.engines.Put(eng)
	core := eng.core
	bus := mem.NewBus(ck.img.Fork())
	core.Bus = bus
	if err := core.Restore(ck.core); err != nil {
		return nil
	}
	bus.Trace.Exited, bus.Trace.ExitCode = ck.exited, ck.exitCode
	p := &callPass{ck: ck, start: core.Cycles(), lanes: make([]lane, len(exps))}

	// Build the lanes and the deduplicated witness net list (lanes may
	// fault different bits, or different models, of one net).
	netIdx := map[rtl.WitnessNet]int{}
	var nets []rtl.WitnessNet
	var all, sets []*lane
	for _, it := range plan {
		for _, i := range it.lanes {
			e := exps[i]
			n := rtl.WitnessNet{Name: e.Node.Node.Name, Word: e.Node.Node.Word}
			ni, ok := netIdx[n]
			if !ok {
				ni = len(nets)
				netIdx[n] = ni
				nets = append(nets, n)
			}
			l := &p.lanes[i]
			*l = lane{
				e:        e,
				f:        rtl.Fault{Node: e.Node.Node, Model: e.Model},
				net:      ni,
				bit:      uint64(1) << e.Node.Node.Bit,
				injectAt: r.armAt(e),
			}
			all = append(all, l)
			if e.Model == rtl.SETPulse {
				l.pulseEnd = l.injectAt + r.opts.PulseCycles
				sets = append(sets, l)
			}
		}
	}
	w, err := core.K.StartWitness(nets)
	if err != nil {
		return nil
	}
	defer w.Stop()
	p.nNets = len(nets)

	// Arm the permanent lanes' polarities; the charge-sampling models
	// read the net's raw word at the injection instant, which for
	// permanents is the pass start (exactly the value a scalar Inject at
	// that boundary would sample).
	for _, l := range all {
		switch l.e.Model {
		case rtl.StuckAt1:
			l.forcedOne = true
		case rtl.OpenLine:
			l.sampled = w.Sample(l.net)
			l.forcedOne = l.sampled&l.bit != 0
		}
	}
	sort.SliceStable(sets, func(a, b int) bool { return sets[a].injectAt < sets[b].injectAt })

	// The pass: one clean continuation from the checkpoint to program
	// exit. Each block opens a zero summary row; fold moves acc into it.
	// Outside SET windows acc is folded once per block; while a window
	// is open it is folded before every cycle, so that after the step
	// acc holds that cycle's reads alone for the exact SET check.
	zero := make([]rtl.WitnessAcc, len(nets))
	acc := w.Accs()
	fold := func() {
		row := p.sums[len(p.sums)-len(acc):]
		for i := range acc {
			row[i].Ones |= acc[i].Ones
			row[i].Zeros |= acc[i].Zeros
			acc[i] = rtl.WitnessAcc{}
		}
	}
	var open []*lane
	nextSet := 0
	var passStart time.Time
	if r.met.live {
		// Behind the live flag: an unregistered engine never reads the
		// clock, and the value only feeds the golden-pass rate metric.
		passStart = time.Now() //lint:allow det live-guarded golden-pass metric
	}
	for core.Status() == iss.StatusRunning {
		t := core.Cycles()
		if (t-p.start)%batchSnapInterval == 0 {
			if t != p.start {
				fold()
			}
			p.sums = append(p.sums, zero...)
			p.snaps = append(p.snaps, passSnap{
				cycle: t,
				core:  core.Snapshot(),
				img:   bus.Mem.Snapshot(),
				// The forked bus's trace holds only post-checkpoint writes;
				// comparators index the absolute golden stream.
				writes: ck.writes + len(bus.Trace.Writes),
			})
		}
		for ; nextSet < len(sets) && sets[nextSet].injectAt <= t; nextSet++ {
			l := sets[nextSet]
			l.sampled = w.Sample(l.net)
			// A SET glitch drives the complement of the charge.
			l.forcedOne = l.sampled&l.bit == 0
			open = append(open, l)
		}
		if len(open) > 0 {
			fold()
		}
		core.StepCycle()
		kept := open[:0]
		for _, l := range open {
			if l.activatesOn(acc[l.net]) {
				l.active, l.activateAt = true, t
			} else if t+1 < l.pulseEnd {
				kept = append(kept, l)
			}
		}
		open = kept
	}
	if len(p.snaps) > 0 {
		fold()
	}
	p.end = core.Cycles()
	r.met.witnessPasses.Inc()
	if r.met.live {
		r.met.goldenSeconds.Add(time.Since(passStart).Seconds()) //lint:allow det live-guarded golden-pass metric
		r.met.goldenCycles.Add(float64(p.end - p.start))
	}

	// A permanent lane forks at the start of its first activating block.
	for _, l := range all {
		if l.pulseEnd == 0 {
			if at := p.nextActivation(l, p.start); at >= 0 {
				l.active, l.activateAt = true, uint64(at)
			}
		}
	}
	return p
}

// nextActivation returns the cycle at or after the block boundary from
// where the lane may next be read divergently, or -1 if it never is.
// For a permanent lane that is the start of its next activating block.
// A SETPulse lane's activation is only known exactly inside its window
// (where forking happens); from within the window the answer is from
// itself, which keeps the lane simulating, and past it -1.
func (p *callPass) nextActivation(l *lane, from uint64) int64 {
	if l.pulseEnd != 0 {
		if from >= l.pulseEnd {
			return -1
		}
		return int64(from)
	}
	for b := int((from - p.start) / batchSnapInterval); b < len(p.snaps); b++ {
		if l.activatesOn(p.sums[b*p.nNets+l.net]) {
			return int64(p.start + uint64(b)*batchSnapInterval)
		}
	}
	return -1
}

// runBatch resolves one batch of the call's lanes from the shared pass.
// The returned results are positionally parallel to idxs and
// byte-identical to what RunOne would produce for each experiment.
func (r *Runner) runBatch(p *callPass, exps []Experiment, idxs []int) []Result {
	if p == nil {
		return r.runScalarFallback(exps, idxs)
	}
	var core *leon3.Core
	results := make([]Result, len(idxs))
	for j, i := range idxs {
		l := &p.lanes[i]
		res := Result{
			Fault:    l.f,
			Unit:     l.e.Node.Unit,
			Latency:  -1,
			InjectAt: l.injectAt,
		}
		if !l.active {
			// Never activated: no consumer ever read the faulted bit with
			// a differing value, so the universe tracked the golden
			// trajectory bit-for-bit to program exit and the scalar run
			// would have produced the golden trace and length exactly.
			r.met.lanesFree.Inc()
			res.Outcome = OutcomeNoEffect
			res.Cycles = p.end
		} else {
			r.met.lanesActivated.Inc()
			if core == nil {
				eng := r.getEngine()
				defer r.engines.Put(eng)
				core = eng.core
			}
			r.runLane(core, p, l, &res)
		}
		results[j] = res
	}
	return results
}

// runScalarFallback resolves a batch through the scalar engine — the
// defensive path for a pass setup failure, which never happens with a
// same-program core and plan-validated nodes.
func (r *Runner) runScalarFallback(exps []Experiment, idxs []int) []Result {
	r.met.fallbacks.Add(float64(len(idxs)))
	out := make([]Result, len(idxs))
	for j, i := range idxs {
		out[j] = r.RunOne(exps[i])
	}
	return out
}

// materialize positions core (with a fresh bus and comparator) on the
// golden trajectory at cycle t: restore the nearest periodic snapshot at
// or before t, then replay clean cycles — none at a block start, at most
// batchSnapInterval-1 otherwise. The comparator comes out exactly as a
// scalar run's would at t: no mismatch, write index at the golden
// position.
func (r *Runner) materialize(core *leon3.Core, p *callPass, t uint64) (*mem.Bus, *comparator) {
	r.met.snapshots.Inc()
	s := p.snaps[int((t-p.start)/batchSnapInterval)]
	bus := mem.NewBus(s.img.Fork())
	core.Bus = bus
	// Restore never fails here: the snapshot came from a same-program
	// core.
	core.Restore(s.core) //nolint:errcheck
	bus.Trace.Exited, bus.Trace.ExitCode = p.ck.exited, p.ck.exitCode
	c := r.watch(bus, core, s.writes)
	for core.Cycles() < t && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	return bus, c
}

// arm applies the lane's fault to a core positioned at or after the
// injection instant, reproducing exactly the forcing a scalar Inject at
// the original instant armed: the charge-sampling models take their
// frozen value from the lane's recorded sample, not the present state.
func (l *lane) arm(core *leon3.Core) error {
	switch l.e.Model {
	case rtl.OpenLine, rtl.SETPulse:
		return core.K.InjectForced(l.f, l.sampled)
	default:
		return core.K.Inject(l.f)
	}
}

// runLane resolves one activated lane: fork the golden state at the
// lane's activation point, arm the fault, and run the scalar engine loop
// from there. At periodic snapshot boundaries a diverged-but-healed lane
// (committed state re-equals the golden snapshot, off-core write
// position matches — which together imply identical memory, since every
// off-core write flowed through the matching comparator) is dropped back
// onto the golden trajectory: finalized as no-effect if its fault is
// never read divergently again, teleported to its next activating block
// if that is far away, or simply left running if it is near.
func (r *Runner) runLane(core *leon3.Core, p *callPass, l *lane, res *Result) {
	bus, c := r.materialize(core, p, l.activateAt)
	if err := l.arm(core); err != nil {
		// Unreachable for plan-validated nodes; mirrors the scalar
		// engine's inject-error result for robustness.
		res.Outcome = OutcomeNoEffect
		return
	}
	if l.e.Model == rtl.SETPulse {
		for core.Cycles() < l.pulseEnd && core.Status() == iss.StatusRunning &&
			core.Cycles() < r.budget && (r.opts.NoEarlyExit || c.mismatchAt < 0) {
			core.StepCycle()
		}
		core.K.ClearFaults()
	}
	for core.Status() == iss.StatusRunning && core.Cycles() < r.budget &&
		(r.opts.NoEarlyExit || c.mismatchAt < 0) {
		core.StepCycle()
		t := core.Cycles()
		if c.mismatchAt >= 0 || (t-p.start)%batchSnapInterval != 0 {
			continue
		}
		si := int((t - p.start) / batchSnapInterval)
		if si >= len(p.snaps) || p.snaps[si].cycle != t {
			continue // past the last golden snapshot (budget overrun region)
		}
		if c.idx != p.snaps[si].writes || !core.StateEquals(p.snaps[si].core) {
			continue
		}
		// Healed: this universe is bit-identical to the golden run again.
		next := p.nextActivation(l, t)
		if next < 0 {
			res.Outcome = OutcomeNoEffect
			res.Cycles = p.end
			return
		}
		if uint64(next)-t > 2*batchSnapInterval {
			// Teleport across the quiet stretch: re-fork at the next
			// activating block instead of simulating golden cycles.
			bus, c = r.materialize(core, p, uint64(next))
			if err := l.arm(core); err != nil {
				res.Outcome = OutcomeNoEffect
				return
			}
		}
	}
	r.classify(res, core, bus, c, l.injectAt)
}
