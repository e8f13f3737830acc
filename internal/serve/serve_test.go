package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
)

// testOptions are the per-job planning options every test daemon runs
// with: deterministic single-worker solves so plan bytes are comparable
// across runs.
func testOptions() core.Options {
	return core.Options{
		Aggregate: true,
		Solver:    milp.Options{GapTol: 1e-3, MaxNodes: 20000, TimeLimit: time.Minute, Workers: 1},
	}
}

// startServer boots a daemon over httptest and tears both down with the
// test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// stateBytes renders a generated state the way a client would POST it.
func stateBytes(t *testing.T, scale float64) []byte {
	t.Helper()
	st, err := datagen.Enterprise1().Scaled(scale).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submit POSTs a state and decodes the job status, asserting the HTTP
// code.
func submit(t *testing.T, hs *httptest.Server, body []byte, query string, wantCode int) jobStatus {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/plans"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/plans%s = %d, want %d: %s", query, resp.StatusCode, wantCode, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad job status %s: %v", raw, err)
	}
	return st
}

// waitTerminal polls a job until it leaves the queue/solve states,
// returning the final status and its HTTP code.
func waitTerminal(t *testing.T, hs *httptest.Server, id string) (jobStatus, int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(hs.URL + "/v1/plans/" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st jobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("bad status %s: %v", raw, err)
		}
		if st.State != StateQueued && st.State != StateSolving {
			return st, resp.StatusCode
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchPlan GETs a finished job's plan bytes.
func fetchPlan(t *testing.T, hs *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/plans/" + id + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET plan = %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// normalize zeroes the machine-dependent wall-clock fields of a plan
// document (the same convention as the CLI golden tests) and re-encodes.
func normalize(t *testing.T, planJSON []byte) []byte {
	t.Helper()
	plan, err := model.ReadPlan(bytes.NewReader(planJSON))
	if err != nil {
		t.Fatal(err)
	}
	plan.Stats.WallMillis = 0
	plan.Stats.WorkMillis = 0
	if d := plan.Stats.Degradation; d != nil {
		for i := range d.Attempts {
			d.Attempts[i].Millis = 0
		}
	}
	var buf bytes.Buffer
	if err := model.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitPollFetch is the end-to-end happy path: POST enterprise1,
// poll to done, fetch the plan, and require it to match — up to timing
// fields — what the core planner produces directly for the same state
// and options (the CLI-parity contract).
func TestSubmitPollFetch(t *testing.T) {
	srv, hs := startServer(t, Config{Core: testOptions()})
	body := stateBytes(t, 0.1)

	st := submit(t, hs, body, "", http.StatusAccepted)
	if st.State != StateQueued || !strings.HasPrefix(st.ID, "p") {
		t.Fatalf("fresh job = %+v", st)
	}
	final, code := waitTerminal(t, hs, st.ID)
	if final.State != StateDone || code != http.StatusOK {
		t.Fatalf("terminal = %+v (HTTP %d)", final, code)
	}
	if final.Degradation != nil {
		t.Fatalf("clean solve carries degradation: %+v", final.Degradation)
	}
	served := fetchPlan(t, hs, st.ID)

	// Reference: the same solve straight through the planner.
	refState, err := model.ReadState(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := core.New(refState, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := planner.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := model.WritePlan(&ref, refPlan); err != nil {
		t.Fatal(err)
	}
	if got, want := normalize(t, served), normalize(t, ref.Bytes()); !bytes.Equal(got, want) {
		t.Fatalf("served plan differs from direct solve:\nserved: %.300s\ndirect: %.300s", got, want)
	}

	// The trace stream is complete and replayable: seq 1..n with a
	// solve_end, exactly as a -trace file would be.
	resp, err := http.Get(hs.URL + "/v1/plans/" + st.ID + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs, err := obs.Replay(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || final.Events != len(evs) {
		t.Fatalf("%d streamed events, status reported %d", len(evs), final.Events)
	}
	sawEnd := false
	for _, e := range evs {
		if e.Kind == obs.KindSolveEnd {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Fatal("no solve_end in streamed trace")
	}
	if srv.Metrics().Counter(obs.MetricServeJobsDone) != 1 {
		t.Fatalf("serve.jobs_done = %d", srv.Metrics().Counter(obs.MetricServeJobsDone))
	}
}

// TestCacheHitOnResubmit pins the content-hash cache: the key is the
// state's canonical hash, and resubmitting the same model — even
// reformatted — answers 200 immediately with the cached job bytes and
// increments serve.cache_hits exactly once.
func TestCacheHitOnResubmit(t *testing.T) {
	srv, hs := startServer(t, Config{Core: testOptions()})
	body := stateBytes(t, 0.1)
	state, err := model.ReadState(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wantKey, err := model.CanonicalHash(state)
	if err != nil {
		t.Fatal(err)
	}

	first := submit(t, hs, body, "", http.StatusAccepted)
	if first.CacheKey != wantKey {
		t.Fatalf("cache_key = %s, want model.CanonicalHash %s", first.CacheKey, wantKey)
	}
	waitTerminal(t, hs, first.ID)
	firstPlan := fetchPlan(t, hs, first.ID)
	if hits := srv.Metrics().Counter(obs.MetricServeCacheHits); hits != 0 {
		t.Fatalf("cache_hits = %d before any resubmit", hits)
	}

	// Reformat the same document: decode + re-encode compact. Same
	// model, different bytes on the wire.
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact, body) {
		t.Fatal("reformatting produced identical bytes; test is vacuous")
	}
	second := submit(t, hs, compact, "", http.StatusOK)
	if !second.Cached || second.State != StateDone {
		t.Fatalf("resubmit = %+v, want cached done", second)
	}
	if second.CacheKey != first.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", second.CacheKey, first.CacheKey)
	}
	if got := fetchPlan(t, hs, second.ID); !bytes.Equal(got, firstPlan) {
		t.Fatal("cached plan bytes differ from the original solve")
	}
	if hits := srv.Metrics().Counter(obs.MetricServeCacheHits); hits != 1 {
		t.Fatalf("cache_hits = %d after one resubmit", hits)
	}
	if misses := srv.Metrics().Counter(obs.MetricServeCacheMisses); misses != 1 {
		t.Fatalf("cache_misses = %d", misses)
	}

	// A semantically different state must miss.
	state.Groups[0].Servers++
	var cb bytes.Buffer
	if err := model.WriteState(&cb, state); err != nil {
		t.Fatal(err)
	}
	third := submit(t, hs, cb.Bytes(), "", http.StatusAccepted)
	if third.Cached {
		t.Fatal("mutated state hit the cache")
	}
	waitTerminal(t, hs, third.ID)
}

// TestDegradedJob drives a solve into a budget surrender (node limit 1
// on a model that needs branching) and checks the HTTP mapping: 203 on
// the status, the degradation report passed through verbatim, and no
// cache pollution — resubmitting still misses.
func TestDegradedJob(t *testing.T) {
	opts := testOptions()
	opts.DR = true // the DR pool model branches well past the root
	opts.Solver.MaxNodes = 1
	srv, hs := startServer(t, Config{Core: opts})
	body := stateBytes(t, 0.06)

	st := submit(t, hs, body, "", http.StatusAccepted)
	final, code := waitTerminal(t, hs, st.ID)
	if final.State != StateDegraded || code != http.StatusNonAuthoritativeInfo {
		t.Fatalf("terminal = %+v (HTTP %d), want degraded/203", final, code)
	}
	d := final.Degradation
	if d == nil || !d.Degraded || d.Stage == "" {
		t.Fatalf("degradation report = %+v", d)
	}
	if plan := fetchPlan(t, hs, st.ID); len(plan) == 0 {
		t.Fatal("degraded job served no plan")
	}
	if got := srv.Metrics().Counter(obs.MetricServeJobsDegraded); got != 1 {
		t.Fatalf("serve.jobs_degraded = %d", got)
	}

	// Degraded results must not be cached.
	again := submit(t, hs, body, "", http.StatusAccepted)
	if again.Cached {
		t.Fatal("degraded plan was served from cache")
	}
	waitTerminal(t, hs, again.ID)
	if hits := srv.Metrics().Counter(obs.MetricServeCacheHits); hits != 0 {
		t.Fatalf("cache_hits = %d for degraded-only traffic", hits)
	}
}

// TestWarmReplanMatchesCold is the incremental re-planning contract:
// ?prev= seeds the solve with the previous job's plan, the job reports
// seeded=true, and the warm answer certifies the same cost the cold
// solve proved.
func TestWarmReplanMatchesCold(t *testing.T) {
	srv, hs := startServer(t, Config{Core: testOptions()})
	body := stateBytes(t, 0.1)

	cold := submit(t, hs, body, "", http.StatusAccepted)
	waitTerminal(t, hs, cold.ID)
	coldPlan, err := model.ReadPlan(bytes.NewReader(fetchPlan(t, hs, cold.ID)))
	if err != nil {
		t.Fatal(err)
	}

	warm := submit(t, hs, body, "?prev="+cold.ID, http.StatusAccepted)
	if !warm.Seeded {
		t.Fatalf("warm job not seeded: %+v", warm)
	}
	if warm.Cached {
		t.Fatal("warm job served from cache; the seeded solve never ran")
	}
	finalWarm, _ := waitTerminal(t, hs, warm.ID)
	if finalWarm.State != StateDone {
		t.Fatalf("warm terminal = %+v", finalWarm)
	}
	warmPlan, err := model.ReadPlan(bytes.NewReader(fetchPlan(t, hs, warm.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if warmPlan.Cost.Total() != coldPlan.Cost.Total() {
		t.Fatalf("warm cost %v != cold cost %v", warmPlan.Cost.Total(), coldPlan.Cost.Total())
	}
	if got := srv.Metrics().Counter(obs.MetricServeWarmSeeded); got != 1 {
		t.Fatalf("serve.warm_seeded = %d", got)
	}

	// Seeding from a job that has no plan is a client error.
	resp, err := http.Post(hs.URL+"/v1/plans?prev=nosuch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("prev=nosuch = %d, want 400", resp.StatusCode)
	}
}

// TestAPIErrors sweeps the failure edges: invalid body, unknown ids,
// premature plan fetch, delete semantics, health and metrics endpoints.
func TestAPIErrors(t *testing.T) {
	srv, hs := startServer(t, Config{Core: testOptions()})

	resp, err := http.Post(hs.URL+"/v1/plans", "application/json", strings.NewReader(`{"not":"a state"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad state = %d, want 400", resp.StatusCode)
	}
	if got := srv.Metrics().Counter(obs.MetricServeJobsRejected); got != 1 {
		t.Fatalf("serve.jobs_rejected = %d", got)
	}

	for _, path := range []string{"/v1/plans/zzz", "/v1/plans/zzz/plan", "/v1/plans/zzz/events"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// A queued-or-solving job has no plan yet: 409, not an empty 200.
	st := submit(t, hs, stateBytes(t, 0.1), "", http.StatusAccepted)
	resp, err = http.Get(hs.URL + "/v1/plans/" + st.ID + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("premature plan fetch = %d, want 409 (or 200 if already done)", resp.StatusCode)
	}
	waitTerminal(t, hs, st.ID)

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/plans/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/v1/plans/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}
	resp, err = http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte("serve.jobs_submitted")) {
		t.Fatalf("metrics = %d: %.200s", resp.StatusCode, raw)
	}
}

// TestWarmPreload covers Server.Warm: it fills the cache so the first
// real submission of that state is a hit.
func TestWarmPreload(t *testing.T) {
	srv, hs := startServer(t, Config{Core: testOptions()})
	body := stateBytes(t, 0.1)
	state, err := model.ReadState(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm(t.Context(), state); err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm(t.Context(), state); err != nil { // idempotent
		t.Fatal(err)
	}
	st := submit(t, hs, body, "", http.StatusOK)
	if !st.Cached {
		t.Fatalf("post-preload submit = %+v, want cache hit", st)
	}
	if hits := srv.Metrics().Counter(obs.MetricServeCacheHits); hits != 1 {
		t.Fatalf("cache_hits = %d", hits)
	}
}
