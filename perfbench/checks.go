package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"

	"repro/internal/fault"
	"repro/internal/jobs"
)

var errNoBody = errors.New("tier produced no outcome")

// verified is a campaign outcome that passed the structural checks.
type verified struct {
	key    string
	digest string
	out    *jobs.Outcome
	// rounded marks an outcome whose Pf lies outside its Wilson interval
	// by no more than wilsonRounding.
	rounded bool
}

// wilsonRounding is the rounding the Pf-within-interval check forgives.
// stats.WilsonCI computes the bounds as center ± half, which for a
// zero-failure campaign leaves pf_low near 1e-18 instead of 0, just above
// pf = 0. Such outcomes pass and are counted on the summary line.
const wilsonRounding = 1e-12

// checkOutcome applies the structural checks to one served outcome: the
// body is the canonical encoding of the request actually submitted;
// injections == experiments == requested; the outcome tallies sum; Pf ==
// failures/injections and lies within its Wilson interval; a hybrid
// outcome partitions its experiments between the two engines.
func checkOutcome(req jobs.Request, body []byte) (verified, error) {
	var v verified
	if body == nil {
		return v, errNoBody
	}
	n, err := req.Normalize()
	if err != nil {
		return v, err
	}
	if v.key, err = n.Key(); err != nil {
		return v, err
	}
	var o jobs.Outcome
	if err := json.Unmarshal(body, &o); err != nil {
		return v, fmt.Errorf("decoding outcome: %w", err)
	}
	var canon bytes.Buffer
	if err := jobs.EncodeOutcome(&canon, &o); err != nil {
		return v, err
	}
	if !bytes.Equal(canon.Bytes(), body) {
		return v, fmt.Errorf("outcome body is not the canonical encoding")
	}
	if !reflect.DeepEqual(o.Request, n) {
		return v, fmt.Errorf("outcome echoes request %+v, submitted %+v", o.Request, n)
	}
	want := n.Nodes * len(n.Models)
	if o.Injections != want || len(o.Experiments) != want || o.EarlyStopped {
		return v, fmt.Errorf("injections %d, experiments %d, requested %d", o.Injections, len(o.Experiments), want)
	}
	sum := 0
	for _, c := range o.Outcomes {
		sum += c
	}
	noEffect := o.Outcomes[fault.OutcomeNoEffect.String()]
	if sum != o.Injections || o.Failures != o.Injections-noEffect {
		return v, fmt.Errorf("outcome tallies %v do not sum to %d injections, %d failures", o.Outcomes, o.Injections, o.Failures)
	}
	if o.Pf != float64(o.Failures)/float64(o.Injections) ||
		o.Pf < o.PfLow-wilsonRounding || o.Pf > o.PfHigh+wilsonRounding {
		return v, fmt.Errorf("pf %v, failures %d/%d, interval [%v,%v]", o.Pf, o.Failures, o.Injections, o.PfLow, o.PfHigh)
	}
	v.rounded = o.Pf < o.PfLow || o.Pf > o.PfHigh
	if (o.Hybrid != nil) != (n.Engine == "hybrid") {
		return v, fmt.Errorf("hybrid accounting present=%v on engine %q", o.Hybrid != nil, n.Engine)
	}
	if h := o.Hybrid; h != nil && (h.ISSExperiments+h.RTLExperiments != o.Injections || h.Audited == 0) {
		return v, fmt.Errorf("hybrid partition %d+%d of %d, %d audited", h.ISSExperiments, h.RTLExperiments, o.Injections, h.Audited)
	}
	sum256 := sha256.Sum256(body)
	v.digest = hex.EncodeToString(sum256[:])
	v.out = &o
	return v, nil
}

// fidelity accumulates the hybrid router's audit accounting.
type fidelity struct{ audited, disagreements, rtl, experiments int }

func (f *fidelity) add(h *jobs.HybridOutcome) {
	f.audited += h.Audited
	f.disagreements += h.Disagreements
	f.rtl += h.RTLExperiments
	f.experiments += h.ISSExperiments + h.RTLExperiments
}

func (f fidelity) disagreementRate() float64 {
	return safeDiv(float64(f.disagreements), float64(f.audited))
}

func (f fidelity) rtlFrac() float64 { return safeDiv(float64(f.rtl), float64(f.experiments)) }

// sampleIndices picks k distinct indices below n, keyed by seed.
func sampleIndices(seed int64, n, k int) []int {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5a4d91e))
	p := rng.Perm(n)
	if k > n {
		k = n
	}
	return p[:k]
}

// identitySample is the number of served outcomes re-executed unsharded
// in a fresh process after the timed window.
const identitySample = 8

// probeExperiments sizes the fidelity probe of a workload without hybrid
// submissions: hybrid twins of the first campaigns of the workload's
// default-seed list, up to this many experiments (about a tenth are
// audited). The probe does not depend on --seed, so the two fidelity
// metrics move only when the ISS, the RTL model or the router changes.
const probeExperiments = 1500

// referenceRequests builds the post-window reference set: a seed-keyed
// sample of the served campaigns for the byte-identity check, then —
// unless the list carries its own hybrid campaigns — the fidelity probe.
func referenceRequests(seed int64, w workload, list []item, served []result) (sample []int, twins []jobs.Request) {
	sample = sampleIndices(seed, len(served), identitySample)
	for _, r := range served {
		if r.req.Engine == "hybrid" {
			return sample, nil
		}
	}
	total := 0
	for _, it := range w.gen(defaultSeed, len(list)) {
		if total >= probeExperiments {
			break
		}
		twin := it[0]
		twin.Engine = "hybrid"
		twins = append(twins, twin)
		total += twin.Nodes * len(twin.Models)
	}
	return sample, twins
}

// referenceOutput is one request's outcome computed by the reference
// child process.
type referenceOutput struct {
	Digest string              `json:"digest"`
	Hybrid *jobs.HybridOutcome `json:"hybrid,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// runReference computes each request's outcome with the unsharded
// in-process jobs.Execute, in a fresh process whose runner and hybrid
// plan caches the served run never touched.
func runReference(reqs []jobs.Request) ([]referenceOutput, error) {
	in, err := json.Marshal(reqs)
	if err != nil {
		return nil, err
	}
	var out []referenceOutput
	if err := runChild(in, &out, "-reference"); err != nil {
		return nil, err
	}
	if len(out) != len(reqs) {
		return nil, fmt.Errorf("reference child returned %d outcomes for %d requests", len(out), len(reqs))
	}
	return out, nil
}

// reference executes the JSON request list on stdin with the unsharded
// jobs.Execute and prints each outcome's digest and hybrid accounting.
func reference() error {
	var reqs []jobs.Request
	if err := json.NewDecoder(bufio.NewReader(os.Stdin)).Decode(&reqs); err != nil {
		return err
	}
	out := make([]referenceOutput, len(reqs))
	for i, r := range reqs {
		out[i] = executeReference(r)
	}
	return emit(out)
}

// executeReference computes one outcome with the unsharded jobs.Execute.
func executeReference(r jobs.Request) referenceOutput {
	out, err := jobs.Execute(context.Background(), r, 0, nil)
	if err != nil {
		return referenceOutput{Error: err.Error()}
	}
	var b bytes.Buffer
	if err := jobs.EncodeOutcome(&b, out); err != nil {
		return referenceOutput{Error: err.Error()}
	}
	sum := sha256.Sum256(b.Bytes())
	return referenceOutput{Digest: hex.EncodeToString(sum[:]), Hybrid: out.Hybrid}
}

// pinFile holds the committed outcome digests of the rtl-engine
// campaigns of each workload's default-seed list.
const pinFile = "perfbench/digests.json"

const defaultSeed = 1

// pinned maps workload → content address → sha256 of the canonical
// outcome encoding.
type pinned map[string]map[string]string

func loadPins() (pinned, error) {
	b, err := os.ReadFile(pinFile)
	if err != nil {
		return nil, err
	}
	var p pinned
	return p, json.Unmarshal(b, &p)
}

// checkPins compares every rtl-engine outcome of the default-seed list
// with its committed digest and returns the indices that differ. ISS and
// hybrid outcomes are not pinned.
func checkPins(p pinned, workload string, vs []verified, res []result) (bad []int, checked int) {
	for i, v := range vs {
		if res[i].err != nil || res[i].req.Engine != "" {
			continue
		}
		want, ok := p[workload][v.key]
		if !ok {
			continue
		}
		checked++
		if want != v.digest {
			bad = append(bad, i)
		}
	}
	return bad, checked
}

// writePins records the rtl-engine outcome digests of this run.
func writePins(workload string, vs []verified, res []result) error {
	p, err := loadPins()
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if p == nil {
		p = pinned{}
	}
	m := map[string]string{}
	for i, v := range vs {
		if res[i].err == nil && res[i].req.Engine == "" && v.digest != "" {
			m[v.key] = v.digest
		}
	}
	p[workload] = m
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinFile, append(b, '\n'), 0o644)
}
