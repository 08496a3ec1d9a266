package main

import (
	"math/rand/v2"

	"repro/internal/jobs"
)

// An item is the unit a client takes from the shared list: one campaign,
// or — on iss-hybrid — the same spec submitted on the ISS and then on
// the hybrid router, back to back by the same client.
type item []jobs.Request

// workload is one traffic mix of the closed loop. BENCHMARK.json and
// README.md record why each exists.
type workload struct {
	name string
	// perSecond sizes the fixed list: --seconds × perSecond items,
	// calibrated so one pass takes about --seconds on a 2-core host.
	perSecond float64
	gen       func(seed int64, n int) []item
}

var workloadList = []workload{
	{"rtl-permanent", 22, genRTLPermanent},
	{"transient", 12.5, genTransient},
	{"iss-hybrid", 16, genISSHybrid},
	{"restart-replay", 60, genRestartReplay},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// listSize is the fixed number of items a run executes. The floor keeps
// at least ten campaigns beyond the p90 turnaround.
func listSize(w workload, seconds int) int {
	n := int(float64(seconds)*w.perSecond + 0.5)
	if n < 100 {
		n = 100
	}
	return n
}

// automotive is the paper's automotive program set.
var automotive = []string{"puwmod", "canrdr", "ttsprk", "rspeed"}

var permanentModels = []string{"sa0", "sa1", "open"}

// fixedFractions are the injection instants of the cache-friendly
// workloads. The instant is part of the runner-cache key, so the number
// of distinct (program, iterations, instant) triples must stay within the
// 64-entry campaign.RunnerFor cache.
var fixedFractions = []float64{0.2, 0.5, 0.8}

// blockRNG draws the attributes of one block of the list. Blocks are
// seeded independently, so a shorter list is a prefix of a longer one
// with the same seed.
func blockRNG(seed int64, block int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(block)))
}

// deal returns n values cycling through vals, shuffled: every value
// occurs equally often within a block, so list composition barely varies
// between seeds.
func deal[T any](rng *rand.Rand, vals []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func steps(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// campaignSeed is a fresh node-sampling seed per campaign, so no request
// of a list repeats another.
func campaignSeed(rng *rand.Rand) int64 { return rng.Int64N(1<<40) + 1 }

type cacheKey struct {
	prog  string
	iters int
	frac  float64
}

// cacheKeys crosses the automotive programs with the iteration counts
// and the fixed instants, shuffled.
func cacheKeys(rng *rand.Rand, iters []int) []cacheKey {
	var ks []cacheKey
	for _, p := range automotive {
		for _, it := range iters {
			for _, f := range fixedFractions {
				ks = append(ks, cacheKey{p, it, f})
			}
		}
	}
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// permanentList deals the lists of permanent-model campaigns: each block
// crosses the automotive programs, the iteration counts and the fixed
// instants once, with node counts from [lo, hi] in steps of step, one
// model and one target each, dealt evenly. Each spec becomes one request
// per engine, submitted in that order by the same client.
func permanentList(seed int64, n int, iters []int, lo, hi, step int, engines ...string) []item {
	var out []item
	for b := 0; len(out) < n; b++ {
		rng := blockRNG(seed, b)
		keys := cacheKeys(rng, iters)
		nodes := deal(rng, steps(lo, hi, step), len(keys))
		models := deal(rng, permanentModels, len(keys))
		targets := deal(rng, []string{"iu", "cmem"}, len(keys))
		for j, k := range keys {
			if len(out) == n {
				break
			}
			spec := jobs.Request{
				Workload: k.prog, Iterations: k.iters, Target: targets[j],
				Models: []string{models[j]}, Nodes: nodes[j],
				Seed: campaignSeed(rng), InjectAtFraction: k.frac,
			}
			var it item
			for _, e := range engines {
				spec.Engine = e
				it = append(it, spec)
			}
			out = append(out, it)
		}
	}
	return out
}

func genRTLPermanent(seed int64, n int) []item {
	return permanentList(seed, n, []int{2, 3, 4}, 128, 512, 48, "")
}

func genISSHybrid(seed int64, n int) []item {
	return permanentList(seed, n, []int{2, 3}, 96, 256, 32, "iss", "hybrid")
}

func genRestartReplay(seed int64, n int) []item {
	return permanentList(seed, n, []int{2, 3}, 16, 56, 8, "")
}

// transientFraction places a transient campaign's fork point: block b's
// campaigns take one value in each of its 12 strata of [0.05, 0.95), and
// the offset within the stratum differs for every block (31 is coprime to
// the 341 offsets), so no two campaigns of a list share a runner.
func transientFraction(seed int64, block, stratum int) float64 {
	off := (uint64(block)*31 + uint64(seed)) % 341
	return 0.05 + 0.9*float64(uint64(stratum)*341+off)/(12*341)
}

func genTransient(seed int64, n int) []item {
	const block = 12
	var out []item
	for b := 0; len(out) < n; b++ {
		rng := blockRNG(seed, b)
		progs := deal(rng, automotive, block)
		pulses := deal(rng, []uint64{1, 2, 3}, block)
		iters := deal(rng, []int{2, 3}, block)
		nodes := deal(rng, steps(64, 128, 32), block)
		targets := deal(rng, []string{"iu", "cmem"}, block)
		strata := rng.Perm(block)
		for j := 0; j < block && len(out) < n; j++ {
			out = append(out, item{{
				Workload: progs[j], Iterations: iters[j], Target: targets[j],
				Models: []string{"seu", "set"}, PulseCycles: pulses[j], Nodes: nodes[j],
				Seed: campaignSeed(rng), InjectAtFraction: transientFraction(seed, b, strata[j]),
			}})
		}
	}
	return out
}

// warmups are the requests a fresh service runs before the timed load,
// so every golden run the list uses is built once in set-up: one
// single-node campaign per runner key the list shares between campaigns,
// and, for each (program, iterations, pulse, engine) whose keys are all
// distinct, one at injection cycle 0 — an instant no list campaign
// uses, so the process is warm but every transient campaign still
// builds its own runner on the blocking path.
func warmups(list []item) []jobs.Request {
	first := map[runnerKey]jobs.Request{}
	count := map[runnerKey]int{}
	var order []runnerKey
	for _, it := range list {
		for _, r := range it {
			k := runnerKey{workload: r.Workload, iters: r.Iterations, atFraction: r.InjectAtFraction, pulse: r.PulseCycles, engine: r.Engine}
			if count[k] == 0 {
				order = append(order, k)
				first[k] = r
			}
			count[k]++
		}
	}
	shared := map[runnerKey]bool{}
	var out []jobs.Request
	for _, k := range order {
		if count[k] > 1 {
			out = append(out, warmupRequest(first[k], k.atFraction))
			k.atFraction = 0
			shared[k] = true
		}
	}
	for _, k := range order {
		r := first[k]
		k.atFraction = 0
		if !shared[k] {
			shared[k] = true
			out = append(out, warmupRequest(r, 0))
		}
	}
	return out
}

func warmupRequest(r jobs.Request, frac float64) jobs.Request {
	return jobs.Request{
		Workload: r.Workload, Iterations: r.Iterations, Target: "iu",
		Models: r.Models, PulseCycles: r.PulseCycles, Nodes: 1,
		InjectAtFraction: frac, Engine: r.Engine,
	}
}
