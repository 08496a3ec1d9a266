package fault

import (
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
)

// This file implements the checkpointed campaign engine. The paper's cost
// argument (§4.2) is that RTL fault injection is orders of magnitude more
// expensive than ISS simulation; a large share of that cost used to be
// pure redundancy here, because every experiment re-simulated the
// fault-free warm-up from reset to the injection instant. Instead, the
// golden prefix is now simulated exactly once: its full state — every RTL
// signal and memory array, the architectural counters, the memory image
// and the off-core trace position — is frozen in a checkpoint, and each
// experiment forks a bit-identical continuation from it. Memory forks are
// copy-on-write, so thousands of concurrent experiments share one frozen
// page set.

// checkpoint is the forkable golden-run state at the injection instant.
type checkpoint struct {
	core *leon3.Snapshot
	img  *mem.Image
	// Off-core trace position of the golden prefix: the number of writes
	// already emitted and the exit-device state, restored onto every
	// forked bus so end-of-run classification sees the full run.
	writes   int
	exited   bool
	exitCode uint32
}

// Checkpointed reports whether experiments fork from the golden-run
// checkpoint instead of re-simulating from reset. It is a pure status
// query; the checkpoint itself is captured lazily by the first experiment
// (or explicitly by PrepareCheckpoint).
func (r *Runner) Checkpointed() bool {
	return !r.opts.NoCheckpoint && r.opts.InjectAtCycle != 0
}

// PrepareCheckpoint captures the golden-run checkpoint eagerly (a no-op
// when the engine is off or the checkpoint is already taken). Benchmarks
// call it to keep the one-time warm-up simulation out of timed regions.
func (r *Runner) PrepareCheckpoint() { r.checkpoint() }

// checkpoint returns the lazily-captured golden-run checkpoint, or nil
// when the engine is disabled or injection happens at reset (where there
// is no prefix to save).
func (r *Runner) checkpoint() *checkpoint {
	if !r.Checkpointed() {
		return nil
	}
	r.ckptOnce.Do(func() { r.ckpt = r.capture() })
	return r.ckpt
}

// capture re-runs the clean core once up to the injection instant and
// freezes every layer of its state. This is the only time the warm-up
// prefix is simulated, no matter how many experiments the campaign runs.
func (r *Runner) capture() *checkpoint {
	core, bus := r.freshCore()
	for core.Cycles() < r.opts.InjectAtCycle && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	return &checkpoint{
		core:     core.Snapshot(),
		img:      bus.Mem.Snapshot(),
		writes:   len(bus.Trace.Writes),
		exited:   bus.Trace.Exited,
		exitCode: bus.Trace.ExitCode,
	}
}

// runForked executes one experiment forked from the checkpoint on the
// given pooled worker core, whose bus must already sit on a
// copy-on-write fork of the checkpoint image. The core is restored in place to the snapshotted
// state, the fault is armed, and the run continues under the usual
// comparator. The false return (snapshot/core structure mismatch) never
// happens with a same-program core and makes RunOne fall back to the
// from-reset path.
func (r *Runner) runForked(core *leon3.Core, bus *mem.Bus, ck *checkpoint, e Experiment) (Result, bool) {
	if err := core.Restore(ck.core); err != nil {
		return Result{}, false
	}
	bus.Trace.Exited, bus.Trace.ExitCode = ck.exited, ck.exitCode
	c := r.watch(bus, core, ck.writes)
	return r.finish(core, bus, c, e), true
}
