package fault

import (
	"reflect"
	"testing"

	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestExpandOrderGolden locks the enumeration order the shard partition
// and the job service's content addressing depend on: models outer,
// nodes inner, both in caller order. Extending the model list must never
// reorder an existing expansion.
func TestExpandOrderGolden(t *testing.T) {
	na := NodeInfo{Node: rtl.Node{Name: "a", Bit: 0}}
	nb := NodeInfo{Node: rtl.Node{Name: "b", Bit: 1}}
	got := Expand([]NodeInfo{na, nb}, rtl.AllFaultModels()...)
	want := []Experiment{
		{Node: na, Model: rtl.StuckAt0}, {Node: nb, Model: rtl.StuckAt0},
		{Node: na, Model: rtl.StuckAt1}, {Node: nb, Model: rtl.StuckAt1},
		{Node: na, Model: rtl.OpenLine}, {Node: nb, Model: rtl.OpenLine},
		{Node: na, Model: rtl.BitFlip}, {Node: nb, Model: rtl.BitFlip},
		{Node: na, Model: rtl.SETPulse}, {Node: nb, Model: rtl.SETPulse},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Expand order drifted:\n got %v\nwant %v", got, want)
	}
}

// TestScheduleTransientsDeterministic pins the determinism rule of
// sharded transient campaigns: injection cycles are a pure function of
// (seed, absolute experiment index, window), so re-expanding and
// re-scheduling — as every shard worker does — reproduces the identical
// instants, and any slice of the scheduled list carries them unchanged.
func TestScheduleTransientsDeterministic(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := SampleNodes(r.Nodes(TargetIU), 8, 3)
	exps := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(exps, 9)

	again := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(again, 9)
	if !reflect.DeepEqual(exps, again) {
		t.Fatal("re-scheduling the same expansion diverged")
	}

	lo, hi := r.opts.InjectAtCycle, r.GoldenCycles
	distinct := map[uint64]bool{}
	for i, e := range exps {
		if e.AtCycle < lo || e.AtCycle >= hi {
			t.Fatalf("experiment %d scheduled at %d outside [%d,%d)", i, e.AtCycle, lo, hi)
		}
		distinct[e.AtCycle] = true
	}
	if len(distinct) < 2 {
		t.Fatal("scheduling collapsed every instant onto one cycle")
	}

	other := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(other, 10)
	if reflect.DeepEqual(exps, other) {
		t.Fatal("seed does not influence the schedule")
	}

	// Permanent experiments are never touched.
	perm := Expand(nodes, rtl.StuckAt1)
	r.ScheduleTransients(perm, 9)
	for _, e := range perm {
		if e.AtCycle != 0 {
			t.Fatalf("permanent experiment scheduled at %d", e.AtCycle)
		}
	}
}

// TestTransientEngineEquivalence extends the engine contract to the
// transient models: the checkpointed and from-reset engines must
// classify a scheduled BitFlip/SETPulse campaign bit-identically.
func TestTransientEngineEquivalence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		opts Options
	}{
		{"pooled-checkpointed", Options{InjectAtFraction: 0.3, PulseCycles: 3}},
		{"pooled-from-reset", Options{InjectAtFraction: 0.3, PulseCycles: 3, NoCheckpoint: true}},
	}
	var ref []Result
	for _, eng := range engines {
		r, err := NewRunner(w.Program, eng.opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes := SampleNodes(r.Nodes(TargetIU), 6, 7)
		exps := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
		r.ScheduleTransients(exps, 5)
		results := r.Campaign(exps, 3)
		if ref == nil {
			ref = results
			continue
		}
		diffResults(t, eng.name, exps, ref, results)
	}
}

// TestSETPulseTemporalDependence mirrors the BitFlip temporal test: a
// glitch on the expected-PC register is catastrophic mid-run and silent
// once the exit store has retired, and the forcing must actually release
// after its window (a permanent fault on the same node also fails, so
// the test distinguishes the pulse only through the late injection).
func TestSETPulseTemporalDependence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A 64-cycle pulse: wide enough that the glitched expected PC is
	// guaranteed to be sampled by the control logic inside the window.
	r, err := NewRunner(w.Program, Options{PulseCycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	node := NodeInfo{Node: rtl.Node{Name: "iu.ctl.exppc", Bit: 4}}
	early := r.RunOne(Experiment{Node: node, Model: rtl.SETPulse, AtCycle: 50})
	if !early.Outcome.IsFailure() {
		t.Errorf("early PC glitch did not fail: %v", early.Outcome)
	}
	if early.InjectAt != 50 {
		t.Errorf("InjectAt = %d, want 50", early.InjectAt)
	}
	late := r.RunOne(Experiment{Node: node, Model: rtl.SETPulse, AtCycle: r.GoldenCycles - 1})
	if late.Outcome != OutcomeNoEffect {
		t.Errorf("post-exit glitch propagated: %v", late.Outcome)
	}
}

// TestSETPulseReleasesOnQuasiStaticWire pins the release semantics at
// campaign level: a single-cycle glitch on a wire that is recomputed
// combinationally every cycle can only corrupt the cycles inside its
// window, so it must not out-fail the permanent stuck-at on the same
// sample.
func TestSETPulseWeakerThanPermanent(t *testing.T) {
	r := newRunner(t, "excerptB", workloads.Config{})
	nodes := SampleNodes(r.Nodes(TargetIU), 48, 11)
	perm := r.Campaign(Expand(nodes, rtl.StuckAt1), 0)
	set := Expand(nodes, rtl.SETPulse)
	r.ScheduleTransients(set, 11)
	trans := r.Campaign(set, 0)
	pfPerm, pfTrans := Pf(perm), Pf(trans)
	t.Logf("permanent Pf=%.3f set-pulse Pf=%.3f", pfPerm, pfTrans)
	if pfTrans > pfPerm+0.05 {
		t.Errorf("set-pulse Pf %.3f exceeds permanent %.3f", pfTrans, pfPerm)
	}
}
