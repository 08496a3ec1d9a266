package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

func newISSRunner(t *testing.T, opts Options, cycleRef, fixedCycle uint64) *ISSRunner {
	t.Helper()
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewISSRunner(w.Program, opts, cycleRef, fixedCycle)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestISSGoldenRunExits(t *testing.T) {
	r := newISSRunner(t, Options{}, 0, 0)
	if !r.Golden().Exited {
		t.Fatal("ISS golden trace did not exit")
	}
	if r.GoldenInsts == 0 {
		t.Fatal("zero golden instruction count")
	}
	if got, want := r.GoldenTicks(), r.GoldenInsts; got != want {
		t.Fatalf("native GoldenTicks = %d, want GoldenInsts %d", got, want)
	}
}

func TestISSNodesMatchRTL(t *testing.T) {
	ir := newISSRunner(t, Options{}, 0, 0)
	rr := newRunner(t, "excerptA", workloads.Config{})
	for _, target := range []Target{TargetIU, TargetCMEM} {
		if !reflect.DeepEqual(ir.Nodes(target), rr.Nodes(target)) {
			t.Fatalf("%v node enumeration diverges between engines", target)
		}
	}
}

// The ISS engine must schedule the byte-identical transient instants the
// RTL engine does when pinned to its cycle timebase — the hybrid router
// feeds one experiment list to both sides.
func TestISSScheduleMatchesRTLWhenPinned(t *testing.T) {
	rr := newRunner(t, "excerptA", workloads.Config{})
	rr.opts.InjectAtCycle = rr.GoldenCycles / 3
	ir := newISSRunner(t, Options{}, rr.GoldenCycles, rr.InjectCycle())

	nodes := SampleNodes(rr.Nodes(TargetIU), 8, 1)
	a := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	b := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	rr.ScheduleTransients(a, 42)
	ir.ScheduleTransients(b, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pinned ISS transient schedule diverges from RTL schedule")
	}
}

// Checkpoint-forked and from-reset ISS execution must classify
// identically — the same engine-equivalence contract the RTL runner
// keeps.
func TestISSCheckpointEquivalence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewISSRunner(w.Program, Options{InjectAtFraction: 0.4}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewISSRunner(w.Program, Options{InjectAtFraction: 0.4, NoCheckpoint: true}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Checkpointed() || plain.Checkpointed() {
		t.Fatal("checkpoint engine gating wrong")
	}
	nodes := SampleNodes(ck.Nodes(TargetIU), 16, 7)
	exps := Expand(nodes, rtl.FaultModels()...)
	ck.ScheduleTransients(exps, 7)
	plain.ScheduleTransients(exps, 7)
	a := ck.Campaign(exps, 4)
	b := plain.Campaign(exps, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("checkpointed ISS campaign diverges from from-reset campaign")
	}
}

func TestISSRunOneDeterministic(t *testing.T) {
	r := newISSRunner(t, Options{InjectAtFraction: 0.5}, 0, 0)
	nodes := SampleNodes(r.Nodes(TargetIU), 6, 3)
	exps := Expand(nodes, rtl.FaultModels()...)
	r.ScheduleTransients(exps, 3)
	for _, e := range exps {
		if a, b := r.RunOne(e), r.RunOne(e); !reflect.DeepEqual(a, b) {
			t.Fatalf("nondeterministic result for %v: %+v vs %+v", e.Node.Node, a, b)
		}
	}
}

func TestAuditSample(t *testing.T) {
	for i := 0; i < 100; i++ {
		if !AuditSample(1, i, 1.0) {
			t.Fatal("fraction 1.0 must audit everything")
		}
		if AuditSample(1, i, 0) {
			t.Fatal("fraction 0 must audit nothing")
		}
		if AuditSample(5, i, 0.3) != AuditSample(5, i, 0.3) {
			t.Fatal("audit draw not deterministic")
		}
	}
	// The draw is keyed by (seed, index) alone, and roughly respects the
	// fraction over a large sample.
	n := 0
	for i := 0; i < 10000; i++ {
		if AuditSample(9, i, 0.25) {
			n++
		}
	}
	if n < 2200 || n > 2800 {
		t.Fatalf("audit fraction 0.25 selected %d/10000", n)
	}
	// Different seeds select different sets.
	same := 0
	for i := 0; i < 1000; i++ {
		if AuditSample(1, i, 0.5) == AuditSample(2, i, 0.5) {
			same++
		}
	}
	if same > 950 {
		t.Fatalf("seeds 1 and 2 agree on %d/1000 draws", same)
	}
}

// TestISSEngineEquivalence is the ISS engine's correctness contract:
// a campaign call, which resolves its permanent-model experiments from
// one witnessed golden pass, must return exactly what RunOne returns for
// every experiment — over all five models, both timebases, both
// targets, early, middle and late instants, calls of 1, 7 and 200
// nodes, with and without early exit, and from reset.
func TestISSEngineEquivalence(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rr := newRunner(t, "excerptB", workloads.Config{})
	// Each variant runs its calls over the first nodes of the sample,
	// as consecutive calls of callNodes nodes.
	variants := []struct {
		name             string
		opts             Options
		nodes, callNodes int
	}{
		{"early-exit", Options{}, 200, 200},
		{"early-exit", Options{}, 49, 7},
		{"early-exit", Options{}, 12, 1},
		{"no-early-exit", Options{NoEarlyExit: true}, 64, 64},
		{"no-checkpoint", Options{NoCheckpoint: true}, 40, 40},
	}
	for _, pinned := range []bool{false, true} {
		for _, frac := range []float64{0.1, 0.5, 0.8} {
			for _, v := range variants {
				opts := v.opts
				opts.PulseCycles = 3
				var r *ISSRunner
				if pinned {
					r, err = NewISSRunner(w.Program, opts, rr.GoldenCycles, uint64(frac*float64(rr.GoldenCycles)))
				} else {
					opts.InjectAtFraction = frac
					r, err = NewISSRunner(w.Program, opts, 0, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.Checkpointed() == opts.NoCheckpoint {
					t.Fatalf("%s: checkpointed = %v", v.name, r.Checkpointed())
				}
				for _, target := range []Target{TargetIU, TargetCMEM} {
					// Node-major order, so a call of k nodes is a
					// contiguous slice of k*5 experiments.
					var exps []Experiment
					for _, n := range SampleNodes(r.Nodes(target), 200, 11)[:v.nodes] {
						exps = append(exps, Expand([]NodeInfo{n}, rtl.AllFaultModels()...)...)
					}
					r.ScheduleTransients(exps, 11)
					ref := make([]Result, len(exps))
					for i, e := range exps {
						ref[i] = r.RunOne(e)
					}
					name := fmt.Sprintf("pinned=%v/%v/%s/%v/%d-node calls", pinned, frac, v.name, target, v.callNodes)
					diffResults(t, name, exps, ref, sliceCampaign(r, exps, []int{5 * v.callNodes}, 2))
				}
			}
		}
	}
}

// TestISSWorkLedger pins the ISS engine's work ledger for one fixed
// campaign: one golden pass per call holding a permanent-model
// experiment, covering the continuation from the checkpoint to exit
// once; every permanent experiment planned, and split exactly into free
// and activated lanes; every experiment counted once. The lane counts
// and instruction totals are exact, so a coarser activation test (or a
// later fork point) that happened to leave results intact still moves
// them.
func TestISSWorkLedger(t *testing.T) {
	reg := obs.NewRegistry()
	r := newISSRunner(t, Options{InjectAtFraction: 0.3, Obs: reg}, 0, 0)
	nodes := SampleNodes(r.Nodes(TargetIU), 100, 3)
	exps := Expand(nodes, rtl.StuckAt0, rtl.StuckAt1, rtl.OpenLine, rtl.BitFlip)
	r.ScheduleTransients(exps, 3)
	r.Campaign(exps, 2)
	r.Campaign(Expand(nodes[:10], rtl.BitFlip), 1) // no permanent lane: no pass
	c := engineCounters(t, reg)
	want := map[string]float64{
		"iss_engine_experiments_total":              410,
		"iss_engine_witness_passes_total":           1,
		"iss_engine_lanes_planned_total":            300,
		"iss_engine_lanes_free_total":               178,
		"iss_engine_lanes_activated_total":          122,
		"iss_engine_golden_pass_instructions_total": float64(r.GoldenInsts - r.injectAt),
		"iss_engine_lane_instructions_total":        74349,
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("%s = %v, want %v", k, c[k], v)
		}
	}
	if c["iss_engine_lanes_free_total"]+c["iss_engine_lanes_activated_total"] != c["iss_engine_lanes_planned_total"] {
		t.Error("free + activated lanes != planned lanes")
	}
}
