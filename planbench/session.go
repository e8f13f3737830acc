package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/serve"
)

// Probe sizes: how many of a workload's first inputs the traced run
// sends through the layers its own passes do not call.
const (
	probeSessions = 2 // serve sessions in a library workload's probe
	probePlans    = 8 // library plans in serve-replan's probe
	replayTenants = 8 // sessions whose re-plans are replayed in process
)

// tenant is one serve-replan session's inputs: the estate, and the same
// estate with keys reordered and whitespace changed. The session then
// re-plans a chain of numEdits small edits, each from the previous plan.
type tenant struct {
	state     *model.AsIsState
	k         int // picks the edited groups and sites
	cold      []byte
	reordered []byte
	ref       []byte // the in-process plan's normalized bytes, once computed
}

// numEdits is the length of a session's edit chain; see tenant.edit.
const numEdits = 4

func newTenant(st *model.AsIsState, k int) (*tenant, error) {
	t := &tenant{state: st, k: k}
	var err error
	if t.cold, err = encodeState(st); err != nil {
		return nil, err
	}
	// Decoding into a generic value and re-encoding sorts the keys and
	// re-indents: a different document for the same state.
	var v any
	if err := json.Unmarshal(t.cold, &v); err != nil {
		return nil, err
	}
	if t.reordered, err = json.MarshalIndent(v, "", "\t"); err != nil {
		return nil, err
	}
	return t, nil
}

// edit returns edit i of the chain applied to prevState, whose plan is
// prev: one more server for a group whose site has room for it, a 10%
// dearer power price at one site, a site forbidden to a group that does
// not use it, a group pinned where it is. Each edit keeps the previous
// plan feasible: they are the small changes a warm re-plan from
// yesterday's answer is for.
func (t *tenant) edit(i int, prevState *model.AsIsState, prev *model.Plan) *model.AsIsState {
	s := prevState.Clone()
	nT, nG := len(s.Target.DCs), len(s.Groups)
	primary := func(g int) int { return s.Target.DCIndex(prev.AssignmentFor(s.Groups[g].ID).PrimaryDC) }
	switch i {
	case 0:
		for o := 0; o < nG; o++ {
			g := (t.k + o) % nG
			dc := s.Target.DCs[primary(g)]
			if prev.Cost.PerDC[dc.ID].Servers < dc.CapacityServers {
				s.Groups[g].Servers++
				break
			}
		}
	case 1:
		s.Target.DCs[(t.k+2)%nT].PowerCostPerKWh *= 1.1
	case 2:
		g := (t.k + 1) % nG
		f := (primary(g) + 1 + t.k%(nT-1)) % nT
		s.Groups[g].ForbiddenDCs = append(s.Groups[g].ForbiddenDCs, s.Target.DCs[f].ID)
	case 3:
		g := (t.k + 2) % nG
		s.Groups[g].PinnedDC = s.Target.DCs[primary(g)].ID
	}
	return s
}

// serveRunner is serve-replan: sessions against an in-process etserve
// on loopback, one closed-loop caller waiting for every reply.
type serveRunner struct {
	opts    core.Options
	tenants []*tenant
	digests []string
}

func newServeRunner(seed int64, salt uint64, n int, opts core.Options) (*serveRunner, error) {
	r := &serveRunner{opts: opts}
	for i := 0; i < n; i++ {
		st, err := genEstate(seed, salt, i)
		if err != nil {
			return nil, err
		}
		t, err := newTenant(st, i)
		if err != nil {
			return nil, err
		}
		r.tenants = append(r.tenants, t)
	}
	// Daemon start and the untimed warm-up plan.
	d := startDaemon(opts)
	defer d.close()
	if res := d.request(r.tenants[0].cold, "", nil); res.err != nil {
		return nil, fmt.Errorf("warm-up plan: %w", res.err)
	}
	return r, nil
}

// daemon is an etserve instance on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *httptest.Server
	http *http.Client
}

func startDaemon(opts core.Options) *daemon {
	srv := serve.New(serve.Config{Core: opts, Solvers: 1})
	hs := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, hs: hs, http: hs.Client()}
}

func (d *daemon) close() {
	d.hs.Close()
	d.srv.Close()
}

// served is one plan request's outcome.
type served struct {
	id      string
	cached  bool
	body    []byte
	latency time.Duration
	err     error
}

// jobStatus is the part of etserve's job status the caller reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

// request POSTs a state (as a warm re-plan of job prev when prev is not
// empty), waits for the job by following its event stream to the end,
// reads its status and fetches the plan.
func (d *daemon) request(body []byte, prev string, tr *tracer) (res served) {
	t0 := time.Now()
	defer func() { res.latency = time.Since(t0) }()
	url := d.hs.URL + "/v1/plans"
	if prev != "" {
		url += "?prev=" + prev
	}
	var st jobStatus
	tr.call("serve.submit", "serve", func() {
		res.err = d.do(http.MethodPost, url, body, &st, http.StatusOK, http.StatusAccepted)
	})
	if res.err != nil {
		return res
	}
	res.id, res.cached = st.ID, st.Cached
	if !st.Cached {
		tr.call("serve.wait", "serve", func() {
			if res.err = d.do(http.MethodGet, d.hs.URL+"/v1/plans/"+st.ID+"/events", nil, nil, http.StatusOK); res.err != nil {
				return
			}
			res.err = d.do(http.MethodGet, d.hs.URL+"/v1/plans/"+st.ID, nil, &st, http.StatusOK, http.StatusNonAuthoritativeInfo)
		})
		if res.err != nil {
			return res
		}
	}
	tr.call("serve.fetch", "serve", func() {
		res.body, res.err = d.get(d.hs.URL + "/v1/plans/" + st.ID + "/plan")
	})
	return res
}

// do sends one request and decodes the JSON reply into v (when not nil);
// a status outside ok is an error.
func (d *daemon) do(method, url string, body []byte, v any, ok ...int) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	good := false
	for _, c := range ok {
		good = good || resp.StatusCode == c
	}
	if !good {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if v != nil {
		return json.Unmarshal(raw, v)
	}
	return nil
}

func (d *daemon) get(url string) ([]byte, error) {
	resp, err := d.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, err
}

// counters reads the daemon's serve.* counters.
func (d *daemon) counters() (map[string]int64, error) {
	var snap obs.Snapshot
	if err := d.do(http.MethodGet, d.hs.URL+"/v1/metrics", nil, &snap, http.StatusOK); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// sessionOp is one request of a session, kept for the checks.
type sessionOp struct {
	tenant *tenant
	step   int              // 0 cold, 1 resubmit, 2.. edits
	state  *model.AsIsState // the state the request sent
	res    served
}

// runSessions runs one session per tenant on a fresh daemon and returns
// the requests and the daemon's counters.
func runSessions(tenants []*tenant, opts core.Options, tr *tracer) ([]sessionOp, map[string]int64, error) {
	d := startDaemon(opts)
	defer d.close()
	var ops []sessionOp
	for _, t := range tenants {
		req := func(step int, state *model.AsIsState, body []byte, prev string) served {
			root := tr.root("request")
			if tr != nil {
				// The daemon decodes and hashes every submitted state;
				// timing the same calls here gives the model layer's share.
				var s *model.AsIsState
				tr.probe("model.ReadState", "model", func() { s, _ = model.ReadState(bytes.NewReader(body)) })
				if s != nil {
					tr.probe("model.CanonicalHash", "model", func() { model.CanonicalHash(s) })
				}
			}
			res := d.request(body, prev, tr)
			tr.end(root)
			ops = append(ops, sessionOp{tenant: t, step: step, state: state, res: res})
			return res
		}
		last := req(0, t.state, t.cold, "")
		req(1, t.state, t.reordered, "")
		state := t.state
		for i := 0; i < numEdits; i++ {
			var plan *model.Plan
			var err error
			body := []byte(nil)
			if last.err == nil {
				if plan, err = model.ReadPlan(bytes.NewReader(last.body)); err == nil {
					state = t.edit(i, state, plan)
					body, err = encodeState(state)
				}
			}
			if last.err != nil || err != nil {
				ops = append(ops, sessionOp{tenant: t, step: 2 + i, res: served{err: fmt.Errorf("no previous plan to re-plan from")}})
				continue
			}
			last = req(2+i, state, body, last.id)
		}
	}
	c, err := d.counters()
	return ops, c, err
}

// pass runs every tenant's session once on a fresh daemon, then checks
// every reply.
func (r *serveRunner) pass(index int, tr *tracer) (*passResult, error) {
	a0 := allocated()
	sessions, counters, err := runSessions(r.tenants, r.opts, tr)
	if err != nil {
		return nil, err
	}
	pr := &passResult{allocBytes: allocated() - a0}
	var (
		digests []string
		cold    []byte // the current session's cold plan bytes
	)
	for i, s := range sessions {
		if s.step == 0 {
			cold = s.res.body
		}
		o, plan, d := r.check(s, index == 0, cold)
		pr.wall += s.res.latency
		if plan != nil {
			pr.fingerprint.addPlan(plan)
			digests = append(digests, d)
			if index > 0 && o.fail == "" && (i >= len(r.digests) || r.digests[i] != d) {
				o.fail = "plan differs from the same request in pass 1"
			}
		} else {
			digests = append(digests, "")
		}
		pr.ops = append(pr.ops, o)
	}
	if index == 0 {
		r.digests = digests
	}
	f := &pr.fingerprint
	f.PlanDigest = digestAll(digests)
	f.CacheHits, f.CacheMisses = counters[obs.MetricServeCacheHits], counters[obs.MetricServeCacheMisses]
	f.WarmSeeded, f.JobsDegraded = counters[obs.MetricServeWarmSeeded], counters[obs.MetricServeJobsDegraded]
	return pr, nil
}

// check turns one request into an op, applying the output checks. The
// full checks (byte parity with the in-process plan, certification of
// re-plans) run on pass 1; later passes must reproduce pass 1's plans.
func (r *serveRunner) check(s sessionOp, full bool, cold []byte) (op, *model.Plan, string) {
	o := op{name: fmt.Sprintf("%s request %d", s.tenant.state.Name, s.step), kind: opPlan, latency: s.res.latency}
	switch {
	case s.step >= 2:
		o.kind = opReplan
	case s.res.cached:
		o.kind = opHit
	}
	if s.res.err != nil {
		o.fail = s.res.err.Error()
		return o, nil, ""
	}
	plan, err := model.ReadPlan(bytes.NewReader(s.res.body))
	if err != nil {
		o.fail = "decode plan: " + err.Error()
		return o, nil, ""
	}
	o.cost = plan.Cost.Total()
	state := s.state
	if o.fail = checkPlan(state, plan); o.fail != "" || !full {
		return o, plan, digest(plan)
	}
	switch {
	case o.kind == opHit:
		// A hit must replay the bytes of the job that filled the cache:
		// the same session's cold request.
		if !bytes.Equal(s.res.body, cold) {
			o.fail = "cache hit bytes differ from the cold plan that filled the cache"
		}
	case o.kind == opPlan:
		ref, err := s.tenant.reference(r.opts)
		if err != nil {
			o.fail = "in-process reference plan: " + err.Error()
		} else if !bytes.Equal(normalizedPlan(plan), ref) {
			o.fail = "served plan differs from the in-process plan for the same state and options"
		}
	default:
		p, err := core.New(state, r.opts)
		if err == nil {
			_, err = p.CertifyPlan(plan)
		}
		if err != nil {
			o.fail = "certify re-plan: " + err.Error()
		}
	}
	return o, plan, digest(plan)
}

// reference is the normalized plan an in-process solve of the tenant's
// cold state produces with the daemon's options.
func (t *tenant) reference(opts core.Options) ([]byte, error) {
	if t.ref != nil {
		return t.ref, nil
	}
	p, err := core.New(t.state.Clone(), opts)
	if err != nil {
		return nil, err
	}
	plan, err := p.Solve()
	if err != nil {
		return nil, err
	}
	t.ref = normalizedPlan(plan)
	return t.ref, nil
}

// replay re-plans the first sessions' edit chains in process, through
// SeedPlan and basis reuse as etserve's ?prev= path does, with a metrics
// registry the daemon's per-job solver does not have. It returns the
// warm-start counters.
func replay(tenants []*tenant, opts core.Options, tr *tracer) error {
	for _, t := range tenants[:min(replayTenants, len(tenants))] {
		root := tr.root("replay")
		var prev *model.Plan
		p, err := core.New(t.state.Clone(), opts)
		if err == nil {
			tr.probe("core.Planner.Solve", "core", func() { prev, err = p.Solve() })
		}
		state := t.state
		for i := 0; i < numEdits && err == nil; i++ {
			state = t.edit(i, state, prev)
			o := opts
			o.Solver.ReuseBasis = true
			o.Solver.Metrics = obs.NewMetrics()
			if p, err = core.New(state.Clone(), o); err != nil {
				break
			}
			tr.probe("core.Planner.SeedPlan", "core", func() { err = p.SeedPlan(prev) })
			if err != nil {
				break
			}
			tr.probe("core.Planner.Solve", "core", func() { prev, err = p.Solve() })
			if err != nil {
				break
			}
			m := o.Solver.Metrics
			hits, misses := m.Counter(obs.MetricSimplexWarmHits), m.Counter(obs.MetricSimplexWarmMisses)
			tr.add("replay.replans", 1)
			tr.add("replay.warm_hits", float64(hits))
			tr.add("replay.warm_attempts", float64(hits+misses))
			tr.add("replay.dual_pivots", float64(m.Counter(obs.MetricSimplexDualPivots)))
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", t.state.Name, err)
		}
	}
	return nil
}

// probe runs, for the traced run, what serve-replan's sessions do not:
// library plans of the first tenants' states, and the re-plan replay.
func (r *serveRunner) probe(tr *tracer) error {
	for _, t := range r.tenants[:min(probePlans, len(r.tenants))] {
		if res := libPlan(t.cold, r.opts, tr); res.err != nil {
			return fmt.Errorf("probe plan of %s: %w", t.state.Name, res.err)
		}
	}
	return replay(r.tenants, r.opts, tr)
}

// probe runs, for the traced run, what the library workloads' passes do
// not: serve sessions on the first estates, and the re-plan replay.
func (r *libRunner) probe(tr *tracer) error {
	var tenants []*tenant
	for i, b := range r.states[:min(probeSessions, len(r.states))] {
		st, err := model.ReadState(bytes.NewReader(b))
		if err != nil {
			return err
		}
		t, err := newTenant(st, i)
		if err != nil {
			return err
		}
		tenants = append(tenants, t)
	}
	ops, counters, err := runSessions(tenants, r.opts, tr)
	if err != nil {
		return err
	}
	for _, o := range ops {
		if o.res.err != nil {
			return fmt.Errorf("probe session: %w", o.res.err)
		}
		if o.res.cached {
			tr.sample("serve.hit_ms", ms(o.res.latency))
		}
	}
	for _, name := range []string{obs.MetricServeCacheHits, obs.MetricServeCacheMisses, obs.MetricServeWarmSeeded, obs.MetricServeJobsDegraded} {
		tr.add(name, float64(counters[name]))
	}
	return replay(tenants, r.opts, tr)
}
