package jobs_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jobs"
)

// updateISSOutcomes rewrites the pinned fixture instead of checking it:
//
//	go test ./internal/jobs -run TestPinnedISSOutcomes -update-iss-outcomes
//
// Only a deliberate ISS-fidelity change (a new victim mapping, a new
// fault-model semantics on the emulator) may regenerate it, and the
// commit that does says so. An engine optimization must leave every
// digest as it is.
var updateISSOutcomes = flag.Bool("update-iss-outcomes", false,
	"rewrite testdata/iss_outcomes.json from the current engines")

const issOutcomesFile = "testdata/iss_outcomes.json"

// pinnedClass is one hybrid node class's ISS-predicted and RTL-audited
// failure probability.
type pinnedClass struct {
	Unit  string  `json:"unit"`
	ISSPf float64 `json:"iss_pf"`
	RTLPf float64 `json:"rtl_pf"`
}

// pinnedOutcome is one fixture entry: the request, the SHA-256 of its
// canonical outcome encoding and, for hybrid requests, the router's
// fidelity figures — readable context for a digest that moved.
type pinnedOutcome struct {
	Request          jobs.Request  `json:"request"`
	SHA256           string        `json:"sha256"`
	DisagreementRate *float64      `json:"disagreement_rate,omitempty"`
	Classes          []pinnedClass `json:"classes,omitempty"`
}

// pinnedRequests is the fixture's request set: four programs, both
// targets, the permanent and the transient model sets, each on the pure
// ISS engine and on the hybrid router.
func pinnedRequests() []jobs.Request {
	progs := []struct {
		name  string
		iters int
	}{{"excerptA", 0}, {"excerptB", 0}, {"intbench", 8}, {"rspeed", 2}}
	var out []jobs.Request
	for _, p := range progs {
		for _, target := range []string{"iu", "cmem"} {
			for _, models := range [][]string{{"sa0", "sa1", "open"}, {"seu", "set"}} {
				for _, engine := range []string{"iss", "hybrid"} {
					r := jobs.Request{
						Workload:         p.name,
						Iterations:       p.iters,
						Target:           target,
						Models:           models,
						Nodes:            64,
						Seed:             5,
						InjectAtFraction: 0.4,
						Engine:           engine,
					}
					if models[0] == "seu" {
						r.PulseCycles = 2
					}
					if engine == "hybrid" {
						r.RTLAudit = 0.25
					}
					out = append(out, r)
				}
			}
		}
	}
	return out
}

func pin(t *testing.T, req jobs.Request) pinnedOutcome {
	t.Helper()
	out, err := jobs.Execute(context.Background(), req, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(encode(t, out))
	p := pinnedOutcome{Request: req, SHA256: hex.EncodeToString(sum[:])}
	if h := out.Hybrid; h != nil {
		rate := h.DisagreementRate
		p.DisagreementRate = &rate
		for _, c := range h.Classes {
			p.Classes = append(p.Classes, pinnedClass{Unit: c.Unit, ISSPf: c.PredictedPf, RTLPf: c.AuditedPf})
		}
	}
	return p
}

// TestPinnedISSOutcomes is the ISS engine's byte-identity record: every
// pure-ISS and hybrid outcome of the fixture's request set must hash to
// the digest pinned in testdata/iss_outcomes.json. The RTL engine's
// bytes are pinned by its own equivalence tests and the benchmark's
// digests; this fixture is the ISS-side counterpart, so an ISS engine
// optimization that changes a single result byte fails here.
func TestPinnedISSOutcomes(t *testing.T) {
	var got []pinnedOutcome
	for _, req := range pinnedRequests() {
		got = append(got, pin(t, req))
	}
	if *updateISSOutcomes {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(issOutcomesFile), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(filepath.FromSlash(issOutcomesFile))
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedOutcome
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture holds %d outcomes, the request set %d", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(want[i], got[i]) {
			w, _ := json.Marshal(want[i])
			g, _ := json.Marshal(got[i])
			t.Errorf("outcome %d moved:\n want %s\n  got %s", i, w, g)
		}
	}
	if t.Failed() {
		t.Log("regenerate only for a deliberate fidelity change: go test ./internal/jobs -run TestPinnedISSOutcomes -update-iss-outcomes")
	}
}
