package fault

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestEngineEquivalence is the campaign engines' correctness contract:
// every engine combination — checkpointed or from-reset, scalar or
// bit-parallel at any lane count — must produce bit-identical Result
// slices (outcomes, latencies, run lengths, hence Pf) across both
// injection targets and all five fault models, with transient instants
// scheduled over the full experiment list. The scalar
// checkpointed engine is the reference; the batched variants pin
// DESIGN.md §10's claim that lane-masked execution is an optimization,
// not an approximation.
func TestEngineEquivalence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		opts Options
	}{
		{"scalar-pooled-checkpointed", Options{InjectAtFraction: 0.3, NoBatch: true}},
		{"batched-64", Options{InjectAtFraction: 0.3}},
		{"batched-8", Options{InjectAtFraction: 0.3, BatchLanes: 8}},
		{"batched-1", Options{InjectAtFraction: 0.3, BatchLanes: 1}},
		{"pooled-from-reset", Options{InjectAtFraction: 0.3, NoCheckpoint: true}},
	}
	for _, target := range []Target{TargetIU, TargetCMEM} {
		t.Run(target.String(), func(t *testing.T) {
			var ref []Result
			var batched *Runner
			var scheduled []Experiment
			for _, eng := range engines {
				r, err := NewRunner(w.Program, eng.opts)
				if err != nil {
					t.Fatal(err)
				}
				nodes := SampleNodes(r.Nodes(target), 6, 7)
				exps := Expand(nodes, rtl.AllFaultModels()...)
				// Same options-derived window and seed in every runner, so
				// each engine sees identical transient instants.
				r.ScheduleTransients(exps, 21)
				results := r.Campaign(exps, 3)
				if ref == nil {
					ref = results
					continue
				}
				if eng.name == "batched-64" {
					batched, scheduled = r, exps
				}
				diffResults(t, eng.name, exps, ref, results)
			}

			// Sharded batched execution: running contiguous slices of the
			// scheduled list as separate campaigns (the shard layer's
			// currency — instants were assigned over the full list) and
			// concatenating must reassemble the unsharded byte stream, no
			// matter how the slicing interacts with batch boundaries.
			diffResults(t, "sharded batched", scheduled, ref, sliceCampaign(batched, scheduled, []int{7}, 2))
		})
	}
}

// TestBatchedCampaignRace drives the bit-parallel engine through a
// parallel campaign with multiple concurrent batches, and through
// concurrent campaign calls on one runner, so `go test -race` exercises
// concurrent batches sharing one call's witnessed pass, concurrent
// passes of different calls on pooled cores, copy-on-write image forks
// and per-lane materialization — and the lane demultiplexing stays
// byte-identical to serial execution.
func TestBatchedCampaignRace(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5, BatchLanes: 8, PulseCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := SampleNodes(r.Nodes(TargetIU), 12, 11)
	exps := Expand(nodes, rtl.AllFaultModels()...)
	r.ScheduleTransients(exps, 4)
	par := r.Campaign(exps, 8)
	ser := r.Campaign(exps, 1)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel batched campaign diverged from serial")
	}

	// Concurrent calls on one runner: whole-list calls and shard-style
	// slices, each with its own pass.
	var wg sync.WaitGroup
	got := make([][]Result, 4)
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c%2 == 0 {
				got[c] = r.Campaign(exps, 3)
			} else {
				got[c] = sliceCampaign(r, exps, []int{19 + c, 27}, 2)
			}
		}()
	}
	wg.Wait()
	for c, res := range got {
		if !reflect.DeepEqual(res, ser) {
			t.Fatalf("concurrent call %d diverged from serial", c)
		}
	}
}

// TestPooledCampaignRace drives the pooled engine through a parallel
// campaign with more workers than experiments per slot, so `go test
// -race` exercises concurrent checkout/restore of pooled cores, the
// shared checkpoint and the copy-on-write image forks.
func TestPooledCampaignRace(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nodes := SampleNodes(r.Nodes(TargetIU), 16, 11)
	exps := Expand(nodes, rtl.StuckAt1, rtl.StuckAt0)
	par := r.Campaign(exps, 8)
	ser := r.Campaign(exps, 1)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel pooled campaign diverged from serial")
	}
}

// TestNodesCachedPerRunner pins the satellite fix: Nodes used to build a
// complete throwaway core on every call; it is now enumerated once per
// runner and the same backing slice is handed back.
func TestNodesCachedPerRunner(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []Target{TargetIU, TargetCMEM} {
		a, b := r.Nodes(target), r.Nodes(target)
		if len(a) == 0 {
			t.Fatalf("%v: empty enumeration", target)
		}
		if &a[0] != &b[0] {
			t.Errorf("%v: enumeration rebuilt on second call", target)
		}
	}
	if fmt.Sprint(r.Nodes(TargetIU)[0]) == fmt.Sprint(r.Nodes(TargetCMEM)[0]) {
		t.Error("IU and CMEM enumerations alias each other")
	}
}
