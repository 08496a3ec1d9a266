// Command shardsmoke is the hermetic end-to-end smoke test behind `make
// shard-smoke`: it builds faultserverd and faultcampaign, boots a
// coordinator daemon in remote-only shard mode plus three worker
// processes, runs a Figure-4-sized campaign (rspeed) through the
// distributed shard path, and asserts the scaling contract — the merged
// result is byte-identical to `faultcampaign -json` run unsharded, the
// in-process sharded CLI (3 workers, one binary) matches too, on both
// injection targets, and the coordinator accounted for every shard. A
// second campaign repeats the exercise with the transient models
// (seu/set), whose per-experiment injection-cycle sampling must survive
// arbitrary shard-to-worker assignment byte-for-byte.
//
// It needs only the go toolchain and a TCP loopback.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strings"

	"repro/internal/smoketest"
)

// spec is the Figure-4-sized campaign: rspeed at 2 kernel iterations
// (the figure's first configuration), stuck-at-1 over a 60-node IU
// sample — 60 experiments split 6 ways across 3 worker processes.
var spec = map[string]interface{}{
	"workload":           "rspeed",
	"iterations":         2,
	"target":             "iu",
	"models":             []string{"sa1"},
	"nodes":              60,
	"seed":               1,
	"inject_at_fraction": 0.3,
}

// transientSpec is the transient twin: both transient models (SEU
// bit-flips and 2-cycle SET pulses) over a 30-node sample of the same
// workload — 60 experiments whose injection cycles are sampled per
// experiment, so byte-identity across the distributed path proves the
// schedule is keyed by absolute experiment index, not worker order.
var transientSpec = map[string]interface{}{
	"workload":           "rspeed",
	"iterations":         2,
	"target":             "iu",
	"models":             []string{"seu", "set"},
	"pulse_cycles":       2,
	"nodes":              30,
	"seed":               1,
	"inject_at_fraction": 0.3,
}

func cliArgs(target string, extra ...string) []string {
	args := []string{
		"-w", "rspeed", "-iters", "2", "-target", target, "-model", "sa1",
		"-nodes", "60", "-seed", "1", "-inject-frac", "0.3", "-json",
	}
	return append(args, extra...)
}

func transientCliArgs(extra ...string) []string {
	args := []string{
		"-w", "rspeed", "-iters", "2", "-target", "iu", "-models", "seu,set",
		"-pulse", "2", "-nodes", "30", "-seed", "1", "-inject-frac", "0.3", "-json",
	}
	return append(args, extra...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardsmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shardsmoke: OK")
}

func run() error {
	dir, err := os.MkdirTemp("", "shardsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bins, err := smoketest.Build(dir, "./cmd/faultserverd", "./cmd/faultcampaign")
	if err != nil {
		return err
	}
	serverBin, cliBin := bins[0], bins[1]

	// Coordinator: 6 shards per campaign, no local shard execution — all
	// work must flow over the HTTP shard surface to the workers.
	srv, base, err := smoketest.StartServer(serverBin, "-addr", "127.0.0.1:0", "-jobs", "1",
		"-shards", "6", "-shard-local-workers=-1", "-shard-lease-ttl", "30s")
	if err != nil {
		return err
	}
	defer smoketest.Stop(srv)
	log.Printf("coordinator at %s", base)
	if err := smoketest.WaitOK(base + "/api/v1/healthz"); err != nil {
		return err
	}

	// Three worker processes, each with modest intra-shard parallelism.
	var workers []*exec.Cmd
	defer func() {
		for _, w := range workers {
			smoketest.Stop(w)
		}
	}()
	for i := 1; i <= 3; i++ {
		w := exec.Command(serverBin, "-worker", "-coordinator", base,
			"-worker-id", fmt.Sprintf("w%d", i), "-campaign-workers", "2")
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			return err
		}
		workers = append(workers, w)
	}
	log.Printf("3 workers pulling shards")

	// Submit the campaign and stream progress until terminal.
	body, _ := json.Marshal(spec)
	id, code, err := smoketest.Submit(base, body)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("submission: HTTP %d, want 201", code)
	}
	var last struct {
		State string `json:"state"`
	}
	snapshots, err := smoketest.StreamToEnd(base, id, &last)
	if err != nil {
		return err
	}
	if last.State != "done" {
		return fmt.Errorf("job ended %q after %d snapshots", last.State, snapshots)
	}
	log.Printf("sharded campaign done after %d progress snapshots", snapshots)

	// The distributed result must be byte-identical to the unsharded CLI.
	serverRes, err := smoketest.GetBytes(base + "/api/v1/campaigns/" + id + "/result")
	if err != nil {
		return err
	}
	unsharded, err := smoketest.RunCLI(cliBin, cliArgs("iu")...)
	if err != nil {
		return err
	}
	if !bytes.Equal(serverRes, unsharded) {
		return fmt.Errorf("distributed sharded result and unsharded faultcampaign -json diverge:\n--- server\n%s\n--- cli\n%s", serverRes, unsharded)
	}
	log.Printf("coordinator+workers == unsharded CLI (%d bytes)", len(serverRes))

	// The in-process sharded CLI (3 workers, one binary) matches too —
	// on the IU target and on CMEM.
	for _, target := range []string{"iu", "cmem"} {
		want := unsharded
		if target == "cmem" {
			if want, err = smoketest.RunCLI(cliBin, cliArgs(target)...); err != nil {
				return err
			}
		}
		sharded, err := smoketest.RunCLI(cliBin, cliArgs(target, "-shards", "3")...)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, sharded) {
			return fmt.Errorf("target %s: -shards 3 diverged from unsharded -json", target)
		}
		log.Printf("target %s: -shards 3 == unsharded (%d bytes)", target, len(want))
	}

	// Transient campaign through the same distributed path: SEU bit-flips
	// and SET pulses, whose per-experiment injection cycles must come out
	// identical no matter which worker executes which shard.
	tbody, _ := json.Marshal(transientSpec)
	tid, tcode, err := smoketest.Submit(base, tbody)
	if err != nil {
		return err
	}
	if tcode != http.StatusCreated {
		return fmt.Errorf("transient submission: HTTP %d, want 201", tcode)
	}
	tsnaps, err := smoketest.StreamToEnd(base, tid, &last)
	if err != nil {
		return err
	}
	if last.State != "done" {
		return fmt.Errorf("transient job ended %q after %d snapshots", last.State, tsnaps)
	}
	tServer, err := smoketest.GetBytes(base + "/api/v1/campaigns/" + tid + "/result")
	if err != nil {
		return err
	}
	tUnsharded, err := smoketest.RunCLI(cliBin, transientCliArgs()...)
	if err != nil {
		return err
	}
	if !bytes.Equal(tServer, tUnsharded) {
		return fmt.Errorf("distributed transient result and unsharded faultcampaign -json diverge:\n--- server\n%s\n--- cli\n%s", tServer, tUnsharded)
	}
	tSharded, err := smoketest.RunCLI(cliBin, transientCliArgs("-shards", "3")...)
	if err != nil {
		return err
	}
	if !bytes.Equal(tUnsharded, tSharded) {
		return fmt.Errorf("transient -shards 3 diverged from unsharded -json")
	}
	if !bytes.Contains(tUnsharded, []byte(`"at_cycle"`)) {
		return fmt.Errorf("transient outcome carries no sampled injection cycles")
	}
	log.Printf("transient seu/set campaign: coordinator+workers == unsharded == -shards 3 (%d bytes)", len(tUnsharded))

	// The coordinator must have planned 6 shards per campaign and merged
	// all of them, all executed by remote workers.
	var health struct {
		Shards struct {
			Planned   int            `json:"planned"`
			Completed int            `json:"completed"`
			Workers   map[string]int `json:"workers"`
		} `json:"shards"`
	}
	if err := smoketest.GetJSON(base+"/api/v1/healthz", &health); err != nil {
		return err
	}
	if health.Shards.Planned != 12 || health.Shards.Completed != 12 {
		return fmt.Errorf("shard stats %+v: want 12 planned, 12 completed", health.Shards)
	}
	total := 0
	for w, n := range health.Shards.Workers {
		if !strings.HasPrefix(w, "w") {
			return fmt.Errorf("unexpected worker %q in stats (local execution leaked?)", w)
		}
		total += n
	}
	if total < 12 {
		return fmt.Errorf("workers leased %d shards, want >= 12", total)
	}
	log.Printf("shard accounting: %d leases across %d workers", total, len(health.Shards.Workers))
	return nil
}
