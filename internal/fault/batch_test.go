package fault

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/sparc"
	"repro/internal/workloads"
)

// sliceCampaign runs exps as consecutive separate campaign calls of the
// given slice sizes (cycled) and concatenates the results — the shard
// layer's currency, with every call running its own witnessed pass.
func sliceCampaign(r CampaignEngine, exps []Experiment, sizes []int, workers int) []Result {
	var out []Result
	for lo, k := 0, 0; lo < len(exps); k++ {
		hi := lo + sizes[k%len(sizes)]
		if hi > len(exps) {
			hi = len(exps)
		}
		res, _, _ := r.CampaignStopContext(context.Background(), exps[lo:hi], workers, nil, nil)
		out = append(out, res...)
		lo = hi
	}
	return out
}

// diffResults reports the first experiment whose result differs.
func diffResults(t *testing.T, name string, exps []Experiment, want, got []Result) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: experiment %d (%v %v @%d) diverged: %+v vs %+v",
				name, i, exps[i].Node.Node, exps[i].Model, exps[i].AtCycle, want[i], got[i])
		}
	}
}

// TestEngineEquivalenceMultiBatch covers what the 6-node
// TestEngineEquivalence cannot: campaign calls whose plan holds many
// batches, all resolving from the call's one witnessed pass, with
// permanent, SET and bit-flip lanes mixed in the same call, plus shard
// slices that cut batches mid-way. Every variant must be byte-identical
// to the scalar engine.
func TestEngineEquivalenceMultiBatch(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	models := []rtl.FaultModel{rtl.StuckAt0, rtl.StuckAt1, rtl.OpenLine, rtl.SETPulse, rtl.BitFlip}
	base := Options{InjectAtFraction: 0.3, PulseCycles: 3}
	for _, target := range []Target{TargetIU, TargetCMEM} {
		t.Run(target.String(), func(t *testing.T) {
			scalarOpts := base
			scalarOpts.NoBatch = true
			scalar, err := NewRunner(w.Program, scalarOpts)
			if err != nil {
				t.Fatal(err)
			}
			exps := Expand(SampleNodes(scalar.Nodes(target), 200, 13), models...)
			scalar.ScheduleTransients(exps, 17)
			ref := scalar.Campaign(exps, 2)

			for _, lanes := range []int{64, 8} {
				opts := base
				opts.BatchLanes = lanes
				r, err := NewRunner(w.Program, opts)
				if err != nil {
					t.Fatal(err)
				}
				batches := 0
				for _, it := range r.planBatches(exps) {
					if it.lanes != nil {
						batches++
					}
				}
				if batches < 3 {
					t.Fatalf("%d lanes: plan holds %d batches, want >= 3", lanes, batches)
				}
				name := fmt.Sprintf("batched-%d", lanes)
				diffResults(t, name, exps, ref, r.Campaign(exps, 2))
				diffResults(t, name+"-sliced", exps, ref, sliceCampaign(r, exps, []int{97, 41, 130}, 2))
			}
		})
	}
}

// engineCounters scrapes a registry's unlabelled series into a map.
func engineCounters(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		var name string
		var v float64
		if strings.HasPrefix(line, "#") {
			continue
		}
		if n, _ := fmt.Sscanf(line, "%s %g", &name, &v); n == 2 {
			m[name] = v
		}
	}
	return m
}

// TestWitnessPassPerCall pins the exact ledger of the shared pass: one
// witnessed golden pass per campaign call that has a batch, however many
// batches the call dispatches, covering the golden continuation from the
// checkpoint to exit exactly once; none for a call without batches. A
// call of bit-flips left unscheduled (AtCycle 0, before the checkpoint)
// has none: those experiments cannot fork from the checkpoint and run
// scalar. The same bit-flips scheduled past the checkpoint are lanes,
// and their call runs exactly one pass.
func TestWitnessPassPerCall(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, BatchLanes: 16, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(r.Nodes(TargetIU), 100, 3), rtl.StuckAt0, rtl.StuckAt1, rtl.SETPulse)
	r.ScheduleTransients(exps, 3)
	passCycles := float64(r.GoldenCycles - r.InjectCycle())

	r.Campaign(exps, 2)
	c := engineCounters(t, reg)
	if got := c["engine_witness_passes_total"]; got != 1 {
		t.Fatalf("witness passes = %v after one 19-batch call, want 1", got)
	}
	if got := c["engine_golden_pass_cycles_total"]; got != passCycles {
		t.Fatalf("golden-pass cycles = %v, want %v", got, passCycles)
	}
	// 28 of the 300 lanes have their fault read divergently inside their
	// window. An activation test coarser than that (say, SET lanes judged
	// on the whole block) forks extra lanes without changing a single
	// result, so only this exact count catches it.
	if c["engine_batch_lanes_planned_total"] != 300 || c["engine_batch_lanes_activated_total"] != 28 ||
		c["engine_batch_lanes_free_total"] != 272 {
		t.Fatalf("lane funnel planned/activated/free = %v/%v/%v, want 300/28/272",
			c["engine_batch_lanes_planned_total"], c["engine_batch_lanes_activated_total"], c["engine_batch_lanes_free_total"])
	}

	r.Campaign(exps[:40], 1)
	flips := Expand(SampleNodes(r.Nodes(TargetIU), 10, 3), rtl.BitFlip)
	r.Campaign(flips, 1)
	c = engineCounters(t, reg)
	if got := c["engine_witness_passes_total"]; got != 2 {
		t.Fatalf("witness passes = %v after a batched and a batch-free call, want 2", got)
	}
	if got := c["engine_golden_pass_cycles_total"]; got != 2*passCycles {
		t.Fatalf("golden-pass cycles = %v, want %v", got, 2*passCycles)
	}

	r.ScheduleTransients(flips, 3)
	r.Campaign(flips, 1)
	c = engineCounters(t, reg)
	if got := c["engine_witness_passes_total"]; got != 3 {
		t.Fatalf("witness passes = %v after a scheduled bit-flip call, want 3", got)
	}
	if got := c["engine_golden_pass_cycles_total"]; got != 3*passCycles {
		t.Fatalf("golden-pass cycles = %v, want %v", got, 3*passCycles)
	}
}

// TestSEULaneGating pins the bit-flip lane funnel of one fixed campaign
// call exactly and checks the lane edge cases against the block grid of
// the call's pass. A flip's lane is free iff its net is read in no block
// from the one holding its instant to exit; otherwise it forks at the
// instant itself. Hand-placed instants cover a block start (the fork
// replays nothing), the last block (read and unread nets), and the
// golden exit and beyond (always free). Every result must equal the
// scalar engine's; a read scan that starts a block late frees lanes
// read only in their own block and breaks that, while one that starts
// at the pass start forks lanes needlessly, which only the exact funnel
// and the edge cases catch.
func TestSEULaneGating(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{InjectAtFraction: 0.3}
	scalarOpts := base
	scalarOpts.NoBatch = true
	scalar, err := NewRunner(w.Program, scalarOpts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts := base
	opts.Obs = reg
	r, err := NewRunner(w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}

	exps := Expand(SampleNodes(r.Nodes(TargetIU), 150, 21), rtl.BitFlip)
	r.ScheduleTransients(exps, 21)
	start, end := r.InjectCycle(), r.GoldenCycles
	lastBlock := start + (end-1-start)/batchSnapInterval*batchSnapInterval
	pc := NodeInfo{Node: rtl.Node{Name: "iu.fe.pc", Bit: 4}, Unit: sparc.UnitFetch}
	// redirpc is read during the run but in no block of the last one.
	redir := NodeInfo{Node: rtl.Node{Name: "iu.fe.redirpc", Bit: 4}, Unit: sparc.UnitFetch}
	dead := NodeInfo{Node: rtl.Node{Name: "iu.md.acc", Bit: 32}, Unit: sparc.UnitMulDiv}
	edges := []struct {
		node   NodeInfo
		at     uint64
		active bool
	}{
		{pc, start, true},
		{pc, start + 3*batchSnapInterval, true},
		{pc, lastBlock, true},
		{pc, end - 1, true},
		{dead, lastBlock + 1, false},
		{redir, end - 1, false},
		{pc, end, false},
		{pc, end + 500, false},
	}
	first := len(exps)
	for _, e := range edges {
		exps = append(exps, Experiment{Node: e.node, Model: rtl.BitFlip, AtCycle: e.at})
	}

	diffResults(t, "batched", exps, scalar.Campaign(exps, 2), r.Campaign(exps, 2))
	c := engineCounters(t, reg)
	if c["engine_witness_passes_total"] != 1 || c["engine_batch_lanes_planned_total"] != 158 ||
		c["engine_batch_lanes_activated_total"] != 32 || c["engine_batch_lanes_free_total"] != 126 {
		t.Fatalf("passes %v, lane funnel planned/activated/free = %v/%v/%v, want 1, 158/32/126",
			c["engine_witness_passes_total"], c["engine_batch_lanes_planned_total"],
			c["engine_batch_lanes_activated_total"], c["engine_batch_lanes_free_total"])
	}

	p := r.witnessPass(exps, r.planBatches(exps))
	for j, e := range edges {
		l := p.lanes[first+j]
		if l.active != e.active || (l.active && l.activateAt != e.at) {
			t.Errorf("flip of %v at %d: active=%v at %d, want active=%v at the instant",
				e.node.Node, e.at, l.active, l.activateAt, e.active)
		}
	}
}

// FuzzBatchEquivalence generalizes the batched == scalar contract over
// the campaign space: program, injection instant, node sample, model
// subset, lane cap and a shard-style slice split. Batched results must
// equal the scalar engine's byte for byte. The engine axis (engine % 3)
// moves the same space onto the ISS engine — 1 in its native timebase,
// 2 pinned to the RTL cycle timebase — where campaign calls resolve
// their permanent-model lanes from one golden pass and must equal
// RunOne for every experiment.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(false, uint8(30), int64(1), uint8(24), uint8(0x1f), uint8(64), uint8(0), uint8(0))
	f.Add(true, uint8(50), int64(7), uint8(40), uint8(0x14), uint8(8), uint8(13), uint8(0))
	f.Add(false, uint8(80), int64(3), uint8(9), uint8(0x04), uint8(1), uint8(5), uint8(0))
	f.Add(true, uint8(5), int64(11), uint8(60), uint8(0x13), uint8(3), uint8(29), uint8(0))
	f.Add(true, uint8(20), int64(2), uint8(50), uint8(0x1f), uint8(0), uint8(0), uint8(1))
	f.Add(false, uint8(60), int64(5), uint8(33), uint8(0x07), uint8(0), uint8(77), uint8(2))
	// Bit-flip-only calls (mask 0x08) on IU (seed&4 == 0) and CMEM.
	f.Add(false, uint8(40), int64(1), uint8(63), uint8(0x08), uint8(64), uint8(0), uint8(0))
	f.Add(true, uint8(70), int64(6), uint8(50), uint8(0x08), uint8(16), uint8(23), uint8(0))
	f.Fuzz(func(t *testing.T, progB bool, frac uint8, seed int64, size uint8, modelMask uint8, laneCap uint8, split uint8, engine uint8) {
		prog := "excerptA"
		if progB {
			prog = "excerptB"
		}
		w, err := workloads.Build(prog, workloads.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var models []rtl.FaultModel
		for i, m := range rtl.AllFaultModels() {
			if modelMask&(1<<i) != 0 {
				models = append(models, m)
			}
		}
		if len(models) == 0 {
			models = []rtl.FaultModel{rtl.StuckAt1}
		}
		opts := Options{
			InjectAtFraction: float64(frac%96+2) / 100,
			PulseCycles:      uint64(seed&3) + 1,
			NoBatch:          true,
		}
		scalar, err := NewRunner(w.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		target := TargetIU
		if seed&4 != 0 {
			target = TargetCMEM
		}
		exps := Expand(SampleNodes(scalar.Nodes(target), int(size%64)+1, seed), models...)
		sizes := []int{len(exps)}
		if split != 0 {
			sizes = []int{int(split%50) + 1, int(split/50) + 7}
		}
		if engine%3 != 0 {
			var ir *ISSRunner
			if engine%3 == 1 {
				ir, err = NewISSRunner(w.Program, Options{InjectAtFraction: opts.InjectAtFraction, PulseCycles: opts.PulseCycles}, 0, 0)
			} else {
				ir, err = NewISSRunner(w.Program, Options{PulseCycles: opts.PulseCycles}, scalar.GoldenCycles, scalar.InjectCycle())
			}
			if err != nil {
				t.Fatal(err)
			}
			ir.ScheduleTransients(exps, seed)
			ref := make([]Result, len(exps))
			for i, e := range exps {
				ref[i] = ir.RunOne(e)
			}
			diffResults(t, "iss", exps, ref, sliceCampaign(ir, exps, sizes, 2))
			return
		}
		scalar.ScheduleTransients(exps, seed)
		ref := scalar.Campaign(exps, 1)

		opts.NoBatch = false
		opts.BatchLanes = int(laneCap % 65)
		batched, err := NewRunner(w.Program, opts)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, "batched", exps, ref, sliceCampaign(batched, exps, sizes, 2))
	})
}
