package jobs

import (
	"context"
	"testing"
)

// Table-driven router decision tests: the per-class escalation verdict
// is the router's whole routing rule, shared verbatim between the
// planner and the outcome accounting.
func TestEscalateClass(t *testing.T) {
	agree8 := make([]bool, 8)
	for i := range agree8 {
		agree8[i] = i%2 == 0
	}
	inverted := make([]bool, 8)
	for i := range agree8 {
		inverted[i] = !agree8[i]
	}
	uncorrelated := []bool{true, true, false, false}
	cases := []struct {
		name       string
		pred, meas []bool
		confidence float64
		want       bool
	}{
		{"confident class trusted", agree8, agree8, 0.9, false},
		{"uncorrelated class escalates", uncorrelated, []bool{true, false, true, false}, 0.9, true},
		{"no audits escalates", nil, nil, 0.9, true},
		{"one audit escalates even when agreeing", []bool{true}, []bool{true}, 0.9, true},
		{"two agreeing audits suffice", []bool{true, false}, []bool{true, false}, 0.9, false},
		{"zero confidence still distrusts zero R2", uncorrelated, []bool{true, false, true, false}, 0.1, true},
		{"anticorrelated prediction has R2 1", agree8, inverted, 0.9, false},
		{"perfect agreement at full confidence", agree8, agree8, 1.0, false},
		{"one disagreement at full confidence", agree8, append(append([]bool{}, agree8[:7]...), !agree8[7]), 1.0, true},
	}
	for _, c := range cases {
		if got := escalateClass(c.pred, c.meas, c.confidence); got != c.want {
			t.Errorf("%s: escalateClass = %v, want %v", c.name, got, c.want)
		}
	}
}

// A remote-only coordinator plans a hybrid campaign's total and golden
// metadata without building its routing plan: the ISS prediction and
// audit passes belong to whichever worker runs the first range.
func TestRemoteOnlyCoordinatorSkipsRouting(t *testing.T) {
	pool := NewShardPool(ShardPoolOptions{Shards: 2, LocalWorkers: -1})
	req := Request{
		Workload: "excerptA", Models: []string{"sa1"}, Nodes: 6,
		Seed: 4242, InjectAtFraction: 0.3, Engine: "hybrid",
	}
	c, err := newCoordinator(context.Background(), pool, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.total != 6 {
		t.Fatalf("coordinator total = %d, want 6", c.total)
	}
	if c.plan.route != nil {
		t.Fatal("remote-only coordinator built the hybrid routing plan")
	}
	planCache.mu.Lock()
	_, cached := planCache.m[c.key]
	planCache.mu.Unlock()
	if cached {
		t.Fatal("remote-only coordinator populated the routing plan cache")
	}
}
