package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchOutput is go test -bench output of two samples (-count 2) on a
// host whose run prints names with the given GOMAXPROCS suffix.
func benchOutput(suffix string) string {
	return strings.Join([]string{
		"goos: linux",
		"cpu: Test CPU @ 1.00GHz",
		"BenchmarkCampaignTransient" + suffix + "   \t 10\t 1000 ns/op\t 7.292 Pf-%\t 2000 exp/s",
		"BenchmarkCampaignTransient" + suffix + "   \t 10\t 3000 ns/op\t 7.292 Pf-%\t 2500 exp/s",
		"BenchmarkAblationSampleSize/nodes-64" + suffix + "\t 1\t 500 ns/op\t 35.94 Pf-%",
		"BenchmarkAblationSampleSize/nodes-64" + suffix + "\t 1\t 700 ns/op\t 35.94 Pf-%",
		"BenchmarkCampaignTransient is not a result line",
		"PASS",
	}, "\n")
}

func TestParseStripsExactlyTheRunsProcsSuffix(t *testing.T) {
	want := map[string]map[string]float64{
		"CampaignTransient":           {"ns/op": 2000, "Pf-%": 7.292, "exp/s": 2500},
		"AblationSampleSize/nodes-64": {"ns/op": 600, "Pf-%": 35.94},
	}
	for _, tc := range []struct {
		procs  int
		suffix string
	}{
		{1, ""},
		{2, "-2"},
		{64, "-64"},
	} {
		rec := parse(benchOutput(tc.suffix), tc.procs)
		if !reflect.DeepEqual(rec.Benchmarks, want) {
			t.Errorf("procs %d: benchmarks = %v, want %v", tc.procs, rec.Benchmarks, want)
		}
		if rec.CPU != "Test CPU @ 1.00GHz" {
			t.Errorf("procs %d: cpu = %q", tc.procs, rec.CPU)
		}
	}
	// A suffix other than the run's own is part of the name.
	rec := parse(benchOutput("-4"), 2)
	if _, ok := rec.Benchmarks["CampaignTransient-4"]; !ok {
		t.Errorf("procs 2 stripped a -4 suffix: %v", rec.Benchmarks)
	}
}

func writeBaseline(t *testing.T, b map[string]map[string]float64) string {
	t.Helper()
	blob, err := json.Marshal(Record{Schema: "bench-json/1", Benchmarks: b})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckComparesSuffixedRunAgainstBaseline(t *testing.T) {
	base := writeBaseline(t, map[string]map[string]float64{
		"CampaignTransient":           {"exp/s": 2167, "ns/op": 1},
		"AblationSampleSize/nodes-64": {"Pf-%": 35.94},
		"Gone":                        {"exp/s": 100},
	})
	cur := parse(benchOutput("-2"), 2)
	regs, err := check(cur, base, 0.15)
	if err != nil || len(regs) != 0 {
		t.Fatalf("check = %v, %v; want a clean comparison", regs, err)
	}

	slow := writeBaseline(t, map[string]map[string]float64{"CampaignTransient": {"exp/s": 5000}})
	regs, err = check(cur, slow, 0.15)
	if err != nil || len(regs) != 1 || !strings.HasPrefix(regs[0], "CampaignTransient exp/s") {
		t.Fatalf("check = %v, %v; want one CampaignTransient exp/s regression", regs, err)
	}
}

func TestCheckFailsWhenNothingIsShared(t *testing.T) {
	base := writeBaseline(t, map[string]map[string]float64{"CampaignTransient": {"exp/s": 2167}})
	// Parsed as if the run had one core, the -2 names match nothing.
	if _, err := check(parse(benchOutput("-2"), 1), base, 0.15); err == nil ||
		!strings.Contains(err.Error(), "no throughput metrics shared") {
		t.Fatalf("check err = %v, want the no-shared-metrics error", err)
	}
	if _, err := check(parse(benchOutput(""), 1), filepath.Join(t.TempDir(), "missing.json"), 0.15); err == nil {
		t.Fatal("check accepted a missing baseline")
	}
}
