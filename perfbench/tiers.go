package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/server"
	"repro/internal/workloads"
)

// shards is the shard count of the sharded tiers, as a daemon would run
// with `faultserverd -shards 4`: every campaign crosses the shard pool.
const shards = 4

// A tier executes one campaign through one public entry point. The
// returned body is the canonical outcome encoding, nil on the engine
// tier, which assembles no outcome.
type tier interface {
	run(ctx context.Context, req jobs.Request) (call, error)
	close()
}

// call is what one campaign cost at a tier.
type call struct {
	body []byte
	// experiments is the engine tier's executed-experiment count.
	experiments int
	// submitS, resultS and lines are the HTTP tier's POST latency,
	// result-GET latency and NDJSON progress lines.
	submitS, resultS float64
	lines            int
}

// service is the system under test, wired the way faultserverd wires
// it: a durable manager with in-process shard workers, the obs registry
// attached, and the HTTP handler on a loopback listener.
type service struct {
	reg  *obs.Registry
	mgr  *jobs.Manager
	api  *server.Server
	srv  *http.Server
	done chan error
	base string
}

// openService boots the service on dataDir ("" = in-memory). withHTTP
// adds the handler and listener.
func openService(dataDir string, withHTTP bool) (*service, error) {
	s := &service{reg: obs.NewRegistry()}
	mgr, _, err := jobs.OpenManager(jobs.ManagerOptions{
		Shards:  shards,
		DataDir: dataDir,
		Obs:     s.reg,
	})
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	if !withHTTP {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	s.api = server.New(mgr, server.WithObs(s.reg))
	s.api.SetReady()
	s.srv = &http.Server{Handler: s.api.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// close shuts the service down in faultserverd's order — manager, open
// streams, listener — and waits for the server goroutine to exit.
func (s *service) close() {
	s.mgr.Close()
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.api.Drain(ctx)
	s.srv.Shutdown(ctx)
	<-s.done
}

// httpTier is tier 1: POST, follow the NDJSON stream to the terminal
// state, GET the result.
type httpTier struct {
	svc    *service
	client *http.Client
}

func newHTTPTier(svc *service) *httpTier {
	return &httpTier{svc: svc, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		Timeout:   2 * time.Minute,
	}}
}

func (t *httpTier) close() {
	t.client.CloseIdleConnections()
	t.svc.close()
}

func (t *httpTier) run(ctx context.Context, req jobs.Request) (call, error) {
	var c call
	payload, err := json.Marshal(req)
	if err != nil {
		return c, err
	}
	start := time.Now()
	var st jobs.Status
	if err := t.do(ctx, http.MethodPost, "/api/v1/campaigns", payload, &st); err != nil {
		return c, err
	}
	c.submitS = time.Since(start).Seconds()
	last, lines, err := t.stream(ctx, st.ID)
	if err != nil {
		return c, err
	}
	c.lines = lines
	if last.State != jobs.StateDone {
		return c, fmt.Errorf("campaign %s ended %s", st.ID, last.State)
	}
	resStart := time.Now()
	var body bytes.Buffer
	if err := t.do(ctx, http.MethodGet, "/api/v1/campaigns/"+st.ID+"/result", nil, &body); err != nil {
		return c, err
	}
	c.resultS = time.Since(resStart).Seconds()
	c.body = body.Bytes()
	return c, nil
}

// do sends one request and decodes a 2xx JSON body into out (or copies
// it into a *bytes.Buffer).
func (t *httpTier) do(ctx context.Context, method, path string, payload []byte, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, t.svc.base+path, rd)
	if err != nil {
		return err
	}
	if payload != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (t *httpTier) stream(ctx context.Context, id string) (jobs.Progress, int, error) {
	var last jobs.Progress
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, t.svc.base+"/api/v1/campaigns/"+id+"/stream", nil)
	if err != nil {
		return last, 0, err
	}
	resp, err := t.client.Do(hreq)
	if err != nil {
		return last, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, 0, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return last, lines, fmt.Errorf("stream %s: %w", id, err)
		}
	}
	return last, lines, sc.Err()
}

// managerTier is tiers 2 and 3: Manager.Submit + Wait on the durable or
// the in-memory sharded service.
type managerTier struct{ svc *service }

func (t managerTier) close() { t.svc.close() }

func (t managerTier) run(ctx context.Context, req jobs.Request) (call, error) {
	st, _, err := t.svc.mgr.Submit(req)
	if err != nil {
		return call{}, err
	}
	st, err = t.svc.mgr.Wait(ctx, st.ID)
	if err != nil {
		return call{}, err
	}
	if st.State != jobs.StateDone || st.Result == nil {
		return call{}, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return encoded(st.Result)
}

func encoded(out *jobs.Outcome) (call, error) {
	var b bytes.Buffer
	err := jobs.EncodeOutcome(&b, out)
	return call{body: b.Bytes()}, err
}

// shardedTier is tier 4: jobs.ExecuteSharded, no manager.
type shardedTier struct{}

func (shardedTier) close() {}

func (shardedTier) run(ctx context.Context, req jobs.Request) (call, error) {
	out, err := jobs.ExecuteSharded(ctx, req, shards, 0, nil)
	if err != nil {
		return call{}, err
	}
	return encoded(out)
}

// executeTier is tier 5: unsharded jobs.ExecuteObs with a tracer on the
// context, which times the golden, plan, execute and assemble stages.
type executeTier struct {
	reg *obs.Registry
	tr  *obs.Tracer
}

func newExecuteTier(reg *obs.Registry) *executeTier {
	return &executeTier{reg: reg, tr: obs.NewTracer(nil)}
}

func (*executeTier) close() {}

func (t *executeTier) run(ctx context.Context, req jobs.Request) (call, error) {
	out, err := jobs.ExecuteObs(obs.WithTracer(ctx, t.tr), req, 0, nil, t.reg)
	if err != nil {
		return call{}, err
	}
	return encoded(out)
}

// engineTier is tier 6: the memoized runner plus CampaignStopContext on
// the campaign's experiment list, rebuilt the way the jobs layer builds
// it. Hybrid campaigns have no single engine call and stop at tier 5.
type engineTier struct {
	*executeTier

	mu      sync.Mutex
	built   map[runnerKey]bool
	builds  int
	buildS  float64
	engineS map[string]float64 // busy seconds per engine
	exps    map[string]int
}

func newEngineTier(reg *obs.Registry) *engineTier {
	return &engineTier{
		executeTier: newExecuteTier(reg),
		built:       map[runnerKey]bool{},
		engineS:     map[string]float64{},
		exps:        map[string]int{},
	}
}

func (t *engineTier) run(ctx context.Context, req jobs.Request) (call, error) {
	n, err := req.Normalize()
	if err != nil {
		return call{}, err
	}
	if n.Engine == "hybrid" {
		return t.executeTier.run(ctx, req)
	}
	engine := "rtl"
	if n.Engine == "iss" {
		engine = "iss"
	}
	start := time.Now()
	r, err := t.runner(n)
	if err != nil {
		return call{}, err
	}
	t.noteBuild(n, time.Since(start).Seconds())
	exps := experiments(r, n)
	start = time.Now()
	_, ran, err := r.CampaignStopContext(ctx, exps, 0, nil, nil)
	busy := time.Since(start).Seconds()
	if err != nil {
		return call{}, err
	}
	done := 0
	for _, ok := range ran {
		if ok {
			done++
		}
	}
	t.mu.Lock()
	t.engineS[engine] += busy
	t.exps[engine] += done
	t.mu.Unlock()
	return call{experiments: done}, nil
}

// runnerKey holds the request fields the runner caches key on.
type runnerKey struct {
	workload    string
	iters, data int
	atCycle     uint64
	atFraction  float64
	pulse       uint64
	engine      string
}

// noteBuild counts a runner-cache key's first request as its build.
// Every list keeps its keys within the 64-entry cache or never repeats
// one, so first requests are exactly the builds.
func (t *engineTier) noteBuild(n jobs.Request, secs float64) {
	k := runnerKey{n.Workload, n.Iterations, n.Dataset, n.InjectAtCycle, n.InjectAtFraction, n.PulseCycles, n.Engine}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.built[k] {
		t.built[k] = true
		t.builds++
		t.buildS += secs
	}
}

func (t *engineTier) runner(n jobs.Request) (fault.CampaignEngine, error) {
	cfg := workloads.Config{Iterations: n.Iterations, Dataset: n.Dataset}
	opts := fault.Options{
		InjectAtCycle:    n.InjectAtCycle,
		InjectAtFraction: n.InjectAtFraction,
		PulseCycles:      n.PulseCycles,
		Obs:              t.reg,
	}
	if n.Engine == "iss" {
		return campaign.ISSRunnerFor(n.Workload, cfg, opts, 0, 0)
	}
	return campaign.RunnerFor(n.Workload, cfg, opts)
}

var modelByName = map[string]rtl.FaultModel{
	"sa0": rtl.StuckAt0, "sa1": rtl.StuckAt1, "open": rtl.OpenLine,
	"seu": rtl.BitFlip, "set": rtl.SETPulse,
}

// experiments rebuilds a normalized request's experiment list: sampled
// nodes crossed with the models, transient instants scheduled from the
// seed.
func experiments(r fault.CampaignEngine, n jobs.Request) []fault.Experiment {
	target := fault.TargetIU
	if n.Target == "cmem" {
		target = fault.TargetCMEM
	}
	nodes := r.Nodes(target)
	if n.Nodes > 0 {
		nodes = fault.SampleNodes(nodes, n.Nodes, n.Seed)
	}
	models := make([]rtl.FaultModel, len(n.Models))
	for i, name := range n.Models {
		models[i] = modelByName[name]
	}
	exps := fault.Expand(nodes, models...)
	r.ScheduleTransients(exps, n.Seed)
	return exps
}

// result is one campaign of a driven list.
type result struct {
	req jobs.Request
	call
	turnaround float64
	err        error
}

// drive runs the list through the tier with a closed loop of `clients`:
// each client takes the next item and submits its requests one after
// the other, waiting for each result. It returns the results in list
// order and the wall time from the first submit to the last result.
func drive(ctx context.Context, t tier, list []item, clients int) ([]result, float64) {
	offset := make([]int, len(list)+1)
	for i, it := range list {
		offset[i+1] = offset[i] + len(it)
	}
	res := make([]result, offset[len(list)])
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				for j, req := range list[i] {
					t0 := time.Now()
					cl, err := t.run(ctx, req)
					res[offset[i]+j] = result{req: req, call: cl, turnaround: time.Since(t0).Seconds(), err: err}
				}
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start).Seconds()
}

// firstErr returns the first failed call of a result set.
func firstErr(res []result) error {
	for _, r := range res {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}
