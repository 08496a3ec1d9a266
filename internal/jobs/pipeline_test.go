package jobs_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/jobs"
	"repro/internal/obs"
)

func spanStages(tr *obs.Tracer) []string {
	var stages []string
	for _, sp := range tr.Spans() {
		stages = append(stages, sp.Stage)
	}
	return stages
}

// TestStageVocabulary pins the one stage vocabulary every execution
// path emits: golden (engine build or cache hit), plan (expansion, plus
// a hybrid campaign's ISS prediction and audit pass), execute, and
// assemble where the path assembles. The shard pool assembles inside
// its coordinator, under the execute span.
func TestStageVocabulary(t *testing.T) {
	for _, engine := range []string{"rtl", "iss", "hybrid"} {
		req := shardSpec("iu")
		req.Engine = engine

		tr := obs.NewTracer(nil)
		if _, err := jobs.ExecuteObs(obs.WithTracer(context.Background(), tr), req, 2, nil, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := spanStages(tr), []string{"golden", "plan", "execute", "assemble"}; !reflect.DeepEqual(got, want) {
			t.Errorf("engine %s: ExecuteObs spans %v, want %v", engine, got, want)
		}

		tr = obs.NewTracer(nil)
		pool := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: 3})
		if _, err := pool.Execute(obs.WithTracer(context.Background(), tr), req, 2, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := spanStages(tr), []string{"golden", "plan", "execute"}; !reflect.DeepEqual(got, want) {
			t.Errorf("engine %s: ShardPool.Execute spans %v, want %v", engine, got, want)
		}
	}
}

// TestShardCancellationOutput pins what a cancelled shard range hands
// back: a single-engine range returns the experiments it completed
// together with ctx.Err(), so the coordinator can fold them; a hybrid
// range is final only when every index is resolved, so it returns
// nothing and the whole range is requeued.
func TestShardCancellationOutput(t *testing.T) {
	// no_batch makes the dispatch granule one experiment, so the cancel
	// lands after a handful of completions.
	single := shardSpec("iu")
	single.NoBatch = true
	// An audit fraction this small leaves every node class with fewer
	// than two audits, so the router escalates them all and the range
	// itself runs RTL experiments that the cancel can interrupt.
	hybrid := single
	hybrid.Engine, hybrid.RTLAudit = "hybrid", 0.01

	for _, tc := range []struct {
		name    string
		req     jobs.Request
		partial bool
	}{
		{"single-engine", single, true},
		{"hybrid", hybrid, false},
	} {
		want, err := jobs.Execute(context.Background(), tc.req, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := want.Injections
		ctx, cancel := context.WithCancel(context.Background())
		out, err := jobs.ExecuteShard(ctx, tc.req, 0, n, 1, func(done, total, failures int) {
			if done == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if !tc.partial {
			if out != nil {
				t.Fatalf("%s: cancelled shard returned %d experiments, want none", tc.name, len(out.Indices))
			}
			continue
		}
		if out == nil || len(out.Indices) < 3 || len(out.Indices) >= n {
			t.Fatalf("%s: cancelled shard output %+v, want a partial of [3,%d) experiments", tc.name, out, n)
		}
		for j, idx := range out.Indices {
			if !reflect.DeepEqual(out.Experiments[j], want.Experiments[idx]) {
				t.Fatalf("%s: partial experiment %d differs from the unsharded run", tc.name, idx)
			}
		}
	}
}
