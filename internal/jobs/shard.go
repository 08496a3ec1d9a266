package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The shard layer splits one campaign into deterministic experiment-range
// shards and merges the executed ranges back into the canonical outcome.
//
// The currency is an index range over the campaign's deterministic
// experiment expansion (experimentsFor). In-process workers run ranges
// of the coordinator's own campaign plan; a remote `faultserverd
// -worker` plans the identical list from the normalized request. A
// shard is therefore fully described by [Start,End), and the union of
// any partition of [0,N) reassembles the exact per-experiment array an
// unsharded run produces. With early stopping off, sharded and
// unsharded campaigns are byte-identical; scheduling (shard count,
// worker count, lease order) can never change a result.
//
// Adaptive early stopping folds live shard tallies into a progressive
// Pf estimate; once the Wilson half-width reaches the request's epsilon
// the coordinator stops leasing, cancels outstanding shards, and
// finalizes over the experiments that completed.

// ErrNoLease reports a lease the coordinator no longer tracks: the shard
// was reclaimed, its campaign finished, or the lease never existed. A
// worker holding it should discard the shard and ask for new work.
var ErrNoLease = errors.New("jobs: unknown or expired shard lease")

// ErrNoShards reports that the service is not running a shard pool.
var ErrNoShards = errors.New("jobs: sharded execution not enabled")

// maxShardAttempts bounds how often one shard is re-leased after
// explicit worker failures before the whole campaign is declared
// failed: a shard that fails deterministically (e.g. its workload
// cannot build) would otherwise bounce between workers forever.
const maxShardAttempts = 3

// maxShardReclaims separately bounds TTL reclaims of one shard. A
// reclaim usually means a dead worker, not a poisoned shard — workers
// send keepalives, so a slow shard is not reclaimed — but a shard whose
// every worker dies silently (e.g. an input that crashes the process
// before it can report failure) must still not bounce forever. The
// bound is much looser than maxShardAttempts because reclaims are
// expected during rolling worker restarts.
const maxShardReclaims = 10

// ShardRange is one contiguous experiment range of a sharded campaign.
// Index identifies the shard within the campaign's plan; requeued
// remainders keep their parent's index.
type ShardRange struct {
	Index int `json:"index"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// PlanShards splits [0,n) into at most k contiguous, non-empty,
// near-equal ranges in ascending order. The plan is a pure function of
// (n, k); workers never see it — they only execute the ranges they
// lease — so any partition of [0,n), planned or hand-written, merges to
// the same campaign.
func PlanShards(n, k int) []ShardRange {
	if n <= 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]ShardRange, k)
	base, rem := n/k, n%k
	start := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = ShardRange{Index: i, Start: start, End: start + size}
		start += size
	}
	return out
}

// ShardLease hands one shard to a worker: the lease token to report
// under, the campaign's content key, the normalized request to expand,
// and the experiment range to execute.
type ShardLease struct {
	Lease   string     `json:"lease"`
	Key     string     `json:"key"`
	Request Request    `json:"request"`
	Range   ShardRange `json:"range"`
	// Total is the campaign's full experiment count (for progress
	// display and report throttling on the worker side).
	Total int `json:"total"`
	// LeaseTTLSeconds tells the worker how long the coordinator waits
	// for a silent lease before reclaiming it; workers pace their
	// keepalive progress reports well inside it.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds,omitempty"`
}

// ShardResult is a worker's final report for a leased shard.
type ShardResult struct {
	Lease  string      `json:"lease"`
	Output ShardOutput `json:"output"`
}

// leaseCounter makes lease ids process-unique.
var leaseCounter atomic.Int64

// shardPersist is the durability seam between the shard layer and the
// manager's write-ahead journal: coordinators report lifecycle events
// through it and pull a resumed campaign's journaled completed shards
// from it. A nil value means in-memory operation.
type shardPersist interface {
	// ShardEvent appends one journal record (completed shards are
	// fsync'd; the rest are breadcrumbs).
	ShardEvent(typ, key string, data interface{})
	// TakeRecovered hands over the completed shard outputs journaled for
	// a campaign before the last crash, exactly once.
	TakeRecovered(key string) []ShardOutput
}

// poolPersist adapts a possibly-nil *persistence into the seam without
// producing a non-nil interface wrapping a nil pointer.
func poolPersist(p *persistence) shardPersist {
	if p == nil {
		return nil
	}
	return p
}

// shardLease is the coordinator-side lease record.
type shardLease struct {
	id       string
	rng      ShardRange
	worker   string
	tally    campaign.Tally // last reported in-flight progress
	lastSeen time.Time
}

// Coordinator owns one sharded campaign: it plans the ranges, leases
// them to workers, folds reported tallies into the progressive Pf and
// its Wilson interval, applies the adaptive stopping rule, and merges
// completed ranges into the canonical outcome. It is safe for
// concurrent use by any number of workers.
type Coordinator struct {
	key string
	// plan is the campaign's plan: in-process workers run its ranges
	// directly, remote workers re-plan from its normalized request.
	plan  *campaignPlan
	total int
	// meta shared by every shard of the campaign, cross-checked on merge.
	goldenCycles uint64
	checkpointed bool

	// onProgress, when non-nil, observes folded tallies (called without
	// the coordinator lock held).
	onProgress func(t campaign.Tally, total int)
	// persist, when non-nil, journals shard lifecycle events so a
	// restarted coordinator resumes from the completed shards.
	persist shardPersist
	// met and log are inherited from the owning pool (no-op/discard when
	// the pool is uninstrumented).
	met shardMetrics
	log *slog.Logger

	mu       sync.Mutex
	pending  []ShardRange
	attempts map[int]int
	reclaims map[int]int
	leases   map[string]*shardLease
	slots    []ExperimentOutcome
	have     []bool
	folded   campaign.Tally // over folded (merged) experiments only
	stopped  bool           // epsilon rule fired; no more leases
	done     bool
	outcome  *Outcome
	err      error
	finished chan struct{}
}

// newCoordinator plans a campaign into shards. Its total and golden-run
// metadata come from the campaign plan its local workers execute, so a
// coordinator that also runs local workers pays for the golden run and
// the expansion exactly once; a hybrid campaign's routing plan is built
// by the first range that needs it, so a remote-only coordinator never
// builds it. With persist set, any completed shards journaled before a
// crash are folded in before leasing begins — the resumed campaign only
// executes the ranges that never durably finished, and because the
// expansion is a pure function of the request the merged outcome is
// byte-identical to an undisturbed run.
func newCoordinator(ctx context.Context, p *ShardPool, req Request, onProgress func(campaign.Tally, int)) (*Coordinator, error) {
	persist := p.opts.persist
	plan, err := planCampaign(ctx, req, 0, p.opts.Obs, false)
	if err != nil {
		return nil, err
	}
	key, err := keyOf(plan.req)
	if err != nil {
		return nil, err
	}
	total := len(plan.exps)
	c := &Coordinator{
		key:          key,
		plan:         plan,
		total:        total,
		goldenCycles: plan.engine.GoldenTicks(),
		checkpointed: plan.engine.Checkpointed(),
		onProgress:   onProgress,
		persist:      persist,
		met:          p.met,
		log:          p.log,
		pending:      PlanShards(total, p.opts.Shards),
		attempts:     map[int]int{},
		reclaims:     map[int]int{},
		leases:       map[string]*shardLease{},
		slots:        make([]ExperimentOutcome, total),
		have:         make([]bool, total),
		finished:     make(chan struct{}),
	}
	if persist != nil {
		persist.ShardEvent(recShardPlanned, key, struct {
			Total  int `json:"total"`
			Shards int `json:"shards"`
		}{total, len(c.pending)})
		c.preloadRecovered(persist.TakeRecovered(key))
	}
	if total == 0 {
		c.finishLocked() // degenerate empty campaign
	}
	return c, nil
}

// preloadRecovered folds journaled completed shard outputs into the
// fresh plan and drops the pending ranges they fully cover. It runs
// before the coordinator is visible to any worker, so no locking.
// Defensive by construction: outputs whose golden-run metadata diverges
// from the freshly simulated run, whose indices fall outside the
// campaign, or that duplicate already-folded indices (a shard requeued
// and completed twice before the crash) are skipped — the worst a bad
// journal can do is re-execute work. The shard count need not match the
// previous process's: coverage is tracked per experiment index, so a
// plan resumed under a different -shards flag still only re-runs the
// uncovered remainder of each range.
func (c *Coordinator) preloadRecovered(outs []ShardOutput) {
	for _, out := range outs {
		if out.GoldenCycles != c.goldenCycles || out.Checkpointed != c.checkpointed {
			continue // journaled under a different engine; re-execute
		}
		if len(out.Indices) != len(out.Experiments) {
			continue
		}
		for i, idx := range out.Indices {
			if idx < 0 || idx >= c.total || c.have[idx] {
				continue
			}
			c.have[idx] = true
			c.slots[idx] = out.Experiments[i]
			c.folded.Done++
			if out.Experiments[i].Outcome != noEffect {
				c.folded.Failures++
			}
		}
	}
	kept := c.pending[:0]
	for _, rng := range c.pending {
		covered := true
		for idx := rng.Start; idx < rng.End; idx++ {
			if !c.have[idx] {
				covered = false
				break
			}
		}
		if !covered {
			kept = append(kept, rng)
		}
	}
	c.pending = kept
	c.maybeStopLocked()
	c.maybeFinishLocked()
}

// Lease hands the next pending shard to a worker, or reports no work.
func (c *Coordinator) Lease(worker string) (*ShardLease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done || c.stopped || len(c.pending) == 0 {
		return nil, false
	}
	rng := c.pending[0]
	c.pending = c.pending[1:]
	l := &shardLease{
		// The process-wide counter keeps lease ids unique even across two
		// coordinators for the same campaign key (cancel + resubmit).
		id:     fmt.Sprintf("%s-%d", c.key[:12], leaseCounter.Add(1)),
		rng:    rng,
		worker: worker,
		// Lease liveness is scheduling state, never result state: TTL
		// reclaim decides who re-executes a range, not what it computes.
		lastSeen: time.Now(), //lint:allow det lease keepalive timestamp
	}
	c.leases[l.id] = l
	if c.persist != nil {
		// Breadcrumb only: a lease with no completion record is exactly
		// what recovery treats as never-happened, so the shard is pending
		// again after a restart (crash-only reclaim).
		c.persist.ShardEvent(recShardLeased, c.key, struct {
			Lease  string `json:"lease"`
			Worker string `json:"worker"`
			Index  int    `json:"index"`
			Start  int    `json:"start"`
			End    int    `json:"end"`
		}{l.id, worker, rng.Index, rng.Start, rng.End})
	}
	return &ShardLease{Lease: l.id, Key: c.key, Request: c.plan.req, Range: rng, Total: c.total}, true
}

// Progress folds a worker's in-flight tally for a leased shard and
// reports whether the worker should cancel the shard (the campaign
// stopped, converged, or no longer tracks the lease). done and failures
// are shard-local absolute counts.
func (c *Coordinator) Progress(leaseID string, done, failures int) (cancel bool) {
	c.mu.Lock()
	l := c.leases[leaseID]
	if l == nil {
		c.mu.Unlock()
		return true
	}
	// Clamp the reported tally into the leased range: a buggy or
	// malicious worker must not be able to inflate the progressive Pf,
	// drive the folded tally negative, or falsely trip the epsilon stop
	// rule with counts its shard cannot contain.
	if size := l.rng.End - l.rng.Start; done > size {
		done = size
	}
	if done < 0 {
		done = 0
	}
	if failures < 0 {
		failures = 0
	}
	if failures > done {
		failures = done
	}
	l.tally = campaign.Tally{Done: done, Failures: failures}
	l.lastSeen = time.Now() //lint:allow det lease keepalive timestamp
	c.maybeStopLocked()
	stop := c.stopped || c.done
	t := c.tallyLocked()
	c.mu.Unlock()
	if c.persist != nil {
		c.persist.ShardEvent(recShardProgress, c.key, struct {
			Lease    string `json:"lease"`
			Done     int    `json:"done"`
			Failures int    `json:"failures"`
		}{leaseID, done, failures})
	}
	c.notify(t)
	return stop
}

// Complete merges a finished (or, once the campaign stopped, partial)
// shard. An incomplete range reported while the campaign is still
// running means the worker was cancelled externally: nothing is folded
// and the shard is requeued for another worker.
func (c *Coordinator) Complete(res ShardResult) error {
	c.mu.Lock()
	l := c.leases[res.Lease]
	if l == nil {
		c.mu.Unlock()
		return ErrNoLease
	}
	out := res.Output
	if len(out.Indices) != len(out.Experiments) {
		c.mu.Unlock()
		return fmt.Errorf("jobs: shard result with %d indices but %d experiments", len(out.Indices), len(out.Experiments))
	}
	for _, idx := range out.Indices {
		if idx < l.rng.Start || idx >= l.rng.End {
			c.mu.Unlock()
			return fmt.Errorf("jobs: shard result index %d outside leased range [%d,%d)", idx, l.rng.Start, l.rng.End)
		}
	}
	delete(c.leases, res.Lease)
	complete := len(out.Indices) == l.rng.End-l.rng.Start
	if !complete && !c.stopped {
		// Externally cancelled worker: requeue the whole range.
		c.requeueLocked(l, "incomplete shard result")
		t := c.tallyLocked()
		c.mu.Unlock()
		c.notify(t)
		return nil
	}
	// Golden-run metadata must agree across every shard of one campaign —
	// the coordinator simulated the same golden run while planning. A
	// mismatch means a worker executed a different campaign than the
	// coordinator planned, and merging would silently corrupt the result.
	if out.GoldenCycles != c.goldenCycles || out.Checkpointed != c.checkpointed {
		c.fatalLocked(fmt.Errorf("jobs: shard golden-run metadata diverged (%d/%v vs %d/%v)",
			out.GoldenCycles, out.Checkpointed, c.goldenCycles, c.checkpointed))
		c.mu.Unlock()
		return nil
	}
	for i, idx := range out.Indices {
		if c.have[idx] {
			continue
		}
		c.have[idx] = true
		c.slots[idx] = out.Experiments[i]
		c.folded.Done++
		if out.Experiments[i].Outcome != noEffect {
			c.folded.Failures++
		}
	}
	c.maybeStopLocked()
	c.maybeFinishLocked()
	t := c.tallyLocked()
	c.mu.Unlock()
	if complete && c.persist != nil {
		// The durable record of this shard's work — fsync'd, because its
		// loss would re-execute the whole range after a crash. Journaled
		// after the fold (outside the lock): a crash in between merely
		// re-runs the shard, and determinism folds identical bytes.
		c.persist.ShardEvent(recShardCompleted, c.key, out)
	}
	c.notify(t)
	return nil
}

// Fail releases a lease after a worker error and requeues its shard; a
// shard that keeps failing takes the campaign down with it.
func (c *Coordinator) Fail(leaseID, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[leaseID]
	if l == nil {
		return ErrNoLease
	}
	delete(c.leases, leaseID)
	c.requeueLocked(l, msg)
	return nil
}

// requeueLocked puts a released lease's range back in the queue, unless
// the campaign already stopped (its remainder is then moot) or the shard
// exhausted its attempts (campaign failure).
func (c *Coordinator) requeueLocked(l *shardLease, msg string) {
	if c.stopped || c.done {
		c.maybeFinishLocked()
		return
	}
	c.attempts[l.rng.Index]++
	if c.attempts[l.rng.Index] >= maxShardAttempts {
		c.fatalLocked(fmt.Errorf("jobs: shard %d failed %d times, last: %s", l.rng.Index, c.attempts[l.rng.Index], msg))
		return
	}
	c.pending = append(c.pending, l.rng)
}

// reclaimStaleLocked requeues shards whose leases went silent for longer
// than ttl — the worker crashed or lost its network — so a campaign
// survives worker death. Reclaims are accounted separately from
// explicit failures: live workers keepalive inside the TTL, so a
// reclaim indicts the worker, not the shard, and must not trip the
// tight poison bound — only the loose maxShardReclaims backstop.
func (c *Coordinator) reclaimStaleLocked(ttl time.Duration, now time.Time) (reclaimed int) {
	var expired []*shardLease
	for _, l := range c.leases {
		if now.Sub(l.lastSeen) > ttl {
			expired = append(expired, l)
		}
	}
	// Requeue in ascending shard order: map iteration order would hand
	// the reclaimed ranges back to workers in a different order every
	// run, and reclaim behaviour — which shard trips the poison bound
	// first, which range the next lease serves — should be reproducible.
	sort.Slice(expired, func(i, j int) bool { return expired[i].rng.Index < expired[j].rng.Index })
	for _, l := range expired {
		delete(c.leases, l.id)
		reclaimed++
		if c.stopped || c.done {
			c.maybeFinishLocked()
			continue
		}
		c.reclaims[l.rng.Index]++
		if c.reclaims[l.rng.Index] >= maxShardReclaims {
			c.fatalLocked(fmt.Errorf("jobs: shard %d reclaimed %d times (every worker died mid-shard)",
				l.rng.Index, c.reclaims[l.rng.Index]))
			return reclaimed
		}
		c.pending = append(c.pending, l.rng)
	}
	return reclaimed
}

// tallyLocked is the live progressive tally: folded experiments plus
// every lease's last reported in-flight progress.
func (c *Coordinator) tallyLocked() campaign.Tally {
	t := c.folded
	for _, l := range c.leases {
		t.Add(l.tally)
	}
	return t
}

// maybeStopLocked applies the adaptive stopping rule to the live tally.
func (c *Coordinator) maybeStopLocked() {
	if c.stopped || c.done || c.plan.req.Epsilon <= 0 {
		return
	}
	if c.tallyLocked().Converged(c.plan.req.Epsilon, stats.Z95) {
		c.stopped = true
		c.pending = nil
		c.maybeFinishLocked()
	}
}

// maybeFinishLocked finalizes the campaign when nothing remains
// outstanding: all slots folded, or — once stopped — every lease has
// reported back its partial.
func (c *Coordinator) maybeFinishLocked() {
	if c.done {
		return
	}
	if c.stopped {
		if len(c.leases) > 0 {
			return
		}
	} else if len(c.pending) > 0 || len(c.leases) > 0 || c.folded.Done < c.total {
		return
	}
	c.finishLocked()
}

// finishLocked assembles the canonical outcome from the folded slots.
func (c *Coordinator) finishLocked() {
	if c.done {
		return
	}
	exps := make([]ExperimentOutcome, 0, c.folded.Done)
	for i, ok := range c.have {
		if ok {
			exps = append(exps, c.slots[i])
		}
	}
	c.outcome = c.plan.assemble(exps)
	c.done = true
	close(c.finished)
}

// fatalLocked fails the whole campaign.
func (c *Coordinator) fatalLocked(err error) {
	if c.done {
		return
	}
	c.met.poisoned.Inc()
	if c.log != nil {
		c.log.Warn("sharded campaign poisoned", "key", shortKey(c.key), "error", err)
	}
	c.err = err
	c.pending = nil
	c.leases = map[string]*shardLease{}
	c.done = true
	close(c.finished)
}

func (c *Coordinator) notify(t campaign.Tally) {
	if c.onProgress != nil {
		c.onProgress(t, c.total)
	}
}

// Wait blocks until the campaign finishes or ctx expires and returns the
// merged outcome.
func (c *Coordinator) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-c.finished:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.outcome, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Tally returns the live progressive tally and the planned total.
func (c *Coordinator) Tally() (campaign.Tally, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tallyLocked(), c.total
}

// ShardStats counts what a shard pool has done since it started.
type ShardStats struct {
	// Campaigns is the number of sharded campaigns executed.
	Campaigns int `json:"campaigns"`
	// Planned counts shards planned across all campaigns.
	Planned int `json:"planned"`
	// Leased counts leases handed out, including requeued re-leases.
	Leased int `json:"leased"`
	// Completed counts shard results merged.
	Completed int `json:"completed"`
	// Requeued counts shards put back after a worker failure or expiry.
	Requeued int `json:"requeued"`
	// EarlyStopped counts campaigns the epsilon rule halted.
	EarlyStopped int `json:"early_stopped"`
	// Workers tallies leases per worker name.
	Workers map[string]int `json:"workers,omitempty"`
}

// ShardPoolOptions sizes a shard pool.
type ShardPoolOptions struct {
	// Shards is the number of experiment-range shards each campaign is
	// split into. Default 8.
	Shards int
	// LocalWorkers is the number of in-process shard executors per
	// campaign: 0 selects the campaign's worker budget (GOMAXPROCS when
	// that is unset), -1 disables local execution entirely (shards are
	// then only served to remote workers).
	LocalWorkers int
	// LeaseTTL bounds how long a silent lease pins its shard before the
	// shard is requeued for another worker. Default 2 minutes.
	LeaseTTL time.Duration
	// Obs, when non-nil, receives the pool's shard lifecycle counters and
	// the fault engine's counters for locally executed shards. Purely
	// observational — see ManagerOptions.Obs.
	Obs *obs.Registry
	// Log, when non-nil, receives shard lifecycle events (leases and
	// completions at Debug, reclaims at Info, poisoned shards at Warn).
	// Nil discards.
	Log *slog.Logger
	// persist, when non-nil, journals every coordinator's shard
	// lifecycle and preloads recovered completed shards. Only the
	// manager sets it (through OpenManager's data directory).
	persist shardPersist
}

// ShardPool coordinates sharded campaign execution: each Execute call
// plans one campaign into shards, runs local worker goroutines over
// them, and — through the Lease/Progress/Complete/Fail surface the HTTP
// layer exposes — lets any number of remote workers pull shards from
// every active campaign. Work is pulled, never pushed: a remote worker
// that attaches mid-campaign simply starts winning leases.
type ShardPool struct {
	opts ShardPoolOptions
	met  shardMetrics
	log  *slog.Logger

	mu     sync.Mutex
	active []*Coordinator
	owner  map[string]*Coordinator // lease id -> owning coordinator
	stats  ShardStats
}

// NewShardPool builds a shard pool.
func NewShardPool(opts ShardPoolOptions) *ShardPool {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Minute
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	p := &ShardPool{opts: opts, log: opts.Log, owner: map[string]*Coordinator{}}
	p.met = newShardMetrics(opts.Obs, p)
	return p
}

// Execute runs one campaign sharded and returns its canonical outcome;
// it matches the ManagerOptions.Executor signature so a manager can
// substitute it for the unsharded path wholesale. workers bounds the
// local shard executors (see ShardPoolOptions.LocalWorkers); tap
// observes folded progressive tallies. A tracer on ctx receives the
// golden and plan spans of planning and one execute span around the
// whole sharded run.
func (p *ShardPool) Execute(ctx context.Context, req Request, workers int, tap Tap) (*Outcome, error) {
	onProgress := func(t campaign.Tally, total int) {
		if tap != nil {
			tap(t.Done, total, t.Failures)
		}
	}
	c, err := newCoordinator(ctx, p, req, onProgress)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	p.active = append(p.active, c)
	p.stats.Campaigns++
	// Snapshot the shard count before c becomes leasable: once p.mu is
	// released, workers mutate c.pending under c.mu.
	planned := len(c.pending)
	p.stats.Planned += planned
	p.mu.Unlock()
	p.met.campaigns.Inc()
	p.log.Debug("sharded campaign planned",
		"key", shortKey(c.key), "experiments", c.total, "shards", planned)
	defer p.unregister(c)

	if tap != nil {
		tap(0, c.total, 0)
	}
	local := p.opts.LocalWorkers
	if local == 0 {
		local = workers
	}
	if local == 0 {
		local = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < local; i++ {
		go p.localWorker(ctx, c, fmt.Sprintf("local-%d", i))
	}
	// Janitor: a remote worker that crashes mid-shard leaves a silent
	// lease; without it the campaign would finish every other shard and
	// then hang. Reclaim expired leases periodically and put a local
	// worker on the requeued remainder (unless the pool is remote-only,
	// where the next polling worker picks it up).
	go func() {
		tick := time.NewTicker(p.opts.LeaseTTL)
		defer tick.Stop()
		for {
			select {
			case <-c.finished:
				return
			case <-ctx.Done():
				return
			case now := <-tick.C:
				c.mu.Lock()
				n := c.reclaimStaleLocked(p.opts.LeaseTTL, now)
				c.mu.Unlock()
				if n > 0 {
					p.mu.Lock()
					p.stats.Requeued += n
					p.mu.Unlock()
					p.met.reclaimed.Add(float64(n))
					p.met.requeued.Add(float64(n))
					p.log.Info("reclaimed expired shard leases",
						"key", shortKey(c.key), "count", n, "ttl", p.opts.LeaseTTL)
					if p.opts.LocalWorkers >= 0 {
						go p.localWorker(ctx, c, "local-reclaim")
					}
				}
			}
		}
	}()
	endExec := obs.TracerFrom(ctx).Stage("execute")
	out, err := c.Wait(ctx)
	endExec()
	if err == nil && out.EarlyStopped {
		p.mu.Lock()
		p.stats.EarlyStopped++
		p.mu.Unlock()
		p.met.earlyStopped.Inc()
	}
	return out, err
}

// localWorker drains one coordinator's pending shards in-process,
// running each leased range on the coordinator's plan. Each shard
// executes single-threaded so a campaign's total parallelism stays at
// the local worker count. The range runner emits no stage spans, so
// the campaign's tracer sees golden, plan and execute exactly once.
func (p *ShardPool) localWorker(ctx context.Context, c *Coordinator, name string) {
	for {
		l, ok := p.leaseFrom(c, name)
		if !ok {
			return
		}
		sctx, cancel := context.WithCancel(ctx)
		var mu sync.Mutex
		var last campaign.Tally
		// Keepalive: refresh the lease through the tap-silent phases so
		// the janitor never reclaims a live worker's shard.
		kaStop := make(chan struct{})
		go func() {
			tick := time.NewTicker(KeepaliveInterval(p.opts.LeaseTTL))
			defer tick.Stop()
			for {
				select {
				case <-kaStop:
					return
				case <-sctx.Done():
					return
				case <-tick.C:
					mu.Lock()
					t := last
					mu.Unlock()
					if c.Progress(l.Lease, t.Done, t.Failures) {
						cancel()
					}
				}
			}
		}()
		out, err := c.plan.runRange(sctx, l.Range.Start, l.Range.End, 1, func(done, total, failures int) {
			mu.Lock()
			last = campaign.Tally{Done: done, Failures: failures}
			mu.Unlock()
			if c.Progress(l.Lease, done, failures) {
				cancel()
			}
		}, false)
		close(kaStop)
		cancel()
		switch {
		case err != nil && ctx.Err() != nil:
			// Externally aborted: release the lease and stop working.
			p.fail(c, l.Lease, err.Error())
			return
		case out == nil:
			// Engine failure (workload build, bad range): requeue; the
			// attempt bound turns a deterministic failure into a campaign
			// failure instead of an infinite bounce.
			p.fail(c, l.Lease, err.Error())
		default:
			// Completed, or cancelled by the coordinator's stop rule with
			// a partial — either way the fold path takes it from here.
			p.complete(c, ShardResult{Lease: l.Lease, Output: *out})
		}
	}
}

// leaseFrom takes the next shard of one coordinator (local workers).
func (p *ShardPool) leaseFrom(c *Coordinator, worker string) (*ShardLease, bool) {
	l, ok := c.Lease(worker)
	if !ok {
		return nil, false
	}
	p.record(c, l, worker)
	return l, true
}

// Lease hands the next pending shard of any active campaign to a remote
// worker, oldest campaign first. With every queue empty it reclaims
// expired leases before reporting no work.
func (p *ShardPool) Lease(worker string) (*ShardLease, bool) {
	p.mu.Lock()
	active := append([]*Coordinator(nil), p.active...)
	ttl := p.opts.LeaseTTL
	p.mu.Unlock()
	for _, c := range active {
		if l, ok := c.Lease(worker); ok {
			p.record(c, l, worker)
			return l, true
		}
	}
	// No pending work anywhere: requeue shards whose workers went silent,
	// then retry once.
	now := time.Now() //lint:allow det lease-TTL reclaim clock, scheduling only
	reclaimed := 0
	for _, c := range active {
		c.mu.Lock()
		n := c.reclaimStaleLocked(ttl, now)
		c.mu.Unlock()
		reclaimed += n
	}
	if reclaimed == 0 {
		return nil, false
	}
	p.mu.Lock()
	p.stats.Requeued += reclaimed
	p.mu.Unlock()
	p.met.reclaimed.Add(float64(reclaimed))
	p.met.requeued.Add(float64(reclaimed))
	p.log.Info("reclaimed expired shard leases", "count", reclaimed, "ttl", ttl)
	for _, c := range active {
		if l, ok := c.Lease(worker); ok {
			p.record(c, l, worker)
			return l, true
		}
	}
	return nil, false
}

// record registers a fresh lease with its owning coordinator and stamps
// the pool's TTL on it so workers can pace keepalives inside it.
func (p *ShardPool) record(c *Coordinator, l *ShardLease, worker string) {
	l.LeaseTTLSeconds = p.opts.LeaseTTL.Seconds()
	p.mu.Lock()
	p.owner[l.Lease] = c
	p.stats.Leased++
	if p.stats.Workers == nil {
		p.stats.Workers = map[string]int{}
	}
	p.stats.Workers[worker]++
	p.mu.Unlock()
	p.met.leased.Inc()
	p.log.Debug("shard leased", "lease", l.Lease, "worker", worker,
		"shard", l.Range.Index, "start", l.Range.Start, "end", l.Range.End)
}

// KeepaliveInterval paces a worker's lease keepalives: a third of the
// TTL, clamped to [1s, TTL], with a 5s default for a missing TTL. The
// silent phases of shard execution — golden-run construction, a long
// hang-budget experiment — produce no progress taps, and without
// keepalives the janitor would reclaim a live worker's shard.
func KeepaliveInterval(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return 5 * time.Second
	}
	iv := ttl / 3
	if iv < time.Second {
		iv = time.Second
	}
	return iv
}

// Progress routes a worker's in-flight tally to the owning coordinator.
// An unknown lease answers cancel=true: the campaign is gone and the
// worker should abandon the shard.
func (p *ShardPool) Progress(leaseID string, done, failures int) (cancel bool) {
	p.mu.Lock()
	c := p.owner[leaseID]
	p.mu.Unlock()
	if c == nil {
		return true
	}
	return c.Progress(leaseID, done, failures)
}

// Complete merges a finished shard into its campaign.
func (p *ShardPool) Complete(res ShardResult) error {
	p.mu.Lock()
	c := p.owner[res.Lease]
	p.mu.Unlock()
	if c == nil {
		return ErrNoLease
	}
	err := c.Complete(res)
	if err == nil {
		p.mu.Lock()
		delete(p.owner, res.Lease)
		p.stats.Completed++
		p.mu.Unlock()
		p.met.completed.Inc()
		p.log.Debug("shard completed", "lease", res.Lease,
			"experiments", len(res.Output.Indices))
	}
	return err
}

// Fail releases a lease after a worker-side error.
func (p *ShardPool) Fail(leaseID, msg string) error {
	p.mu.Lock()
	c := p.owner[leaseID]
	p.mu.Unlock()
	if c == nil {
		return ErrNoLease
	}
	err := c.Fail(leaseID, msg)
	if err == nil {
		p.mu.Lock()
		delete(p.owner, leaseID)
		p.stats.Requeued++
		p.mu.Unlock()
		p.met.requeued.Inc()
		p.log.Info("shard failed by worker, requeued", "lease", leaseID, "error", msg)
	}
	return err
}

// complete is the local-worker twin of Complete.
func (p *ShardPool) complete(c *Coordinator, res ShardResult) {
	if err := c.Complete(res); err == nil {
		p.mu.Lock()
		delete(p.owner, res.Lease)
		p.stats.Completed++
		p.mu.Unlock()
		p.met.completed.Inc()
		p.log.Debug("shard completed", "lease", res.Lease,
			"experiments", len(res.Output.Indices))
	}
}

// fail is the local-worker twin of Fail.
func (p *ShardPool) fail(c *Coordinator, leaseID, msg string) {
	if err := c.Fail(leaseID, msg); err == nil {
		p.mu.Lock()
		delete(p.owner, leaseID)
		p.stats.Requeued++
		p.mu.Unlock()
		p.met.requeued.Inc()
		p.log.Info("shard failed by worker, requeued", "lease", leaseID, "error", msg)
	}
}

// unregister drops a finished campaign and its outstanding leases.
func (p *ShardPool) unregister(c *Coordinator) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, a := range p.active {
		if a == c {
			p.active = append(p.active[:i], p.active[i+1:]...)
			break
		}
	}
	for id, owner := range p.owner {
		if owner == c {
			delete(p.owner, id)
		}
	}
}

// Stats returns the counters accumulated so far.
func (p *ShardPool) Stats() ShardStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	if p.stats.Workers != nil {
		st.Workers = make(map[string]int, len(p.stats.Workers))
		for k, v := range p.stats.Workers {
			st.Workers[k] = v
		}
	}
	return st
}

// ExecuteSharded runs one campaign split into `shards` deterministic
// experiment-range shards on `workers` in-process shard executors (0 =
// GOMAXPROCS) and returns the canonical outcome — with early stopping
// off, byte-identical to Execute for the same request. It is the
// single-binary multi-worker mode behind `faultcampaign -shards`.
func ExecuteSharded(ctx context.Context, req Request, shards, workers int, tap Tap) (*Outcome, error) {
	return NewShardPool(ShardPoolOptions{Shards: shards}).Execute(ctx, req, workers, tap)
}
