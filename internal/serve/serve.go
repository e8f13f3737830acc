// Package serve implements planning as a service: a long-running HTTP
// daemon that accepts as-is states, queues them onto a bounded solver
// pool, and returns certified transformation plans — the same pipeline,
// certificates and degradation reports the etransform CLI produces, but
// resident, so repeated and incremental planning is cheap.
//
// Three properties define the service:
//
//   - Plan fidelity: a plan fetched from GET /v1/plans/{id}/plan is
//     byte-identical to what `etransform -plan` writes for the same
//     state and options (the per-job solver runs without a metrics
//     registry precisely so no extra stats leak into the bytes).
//   - Content-hash caching: submissions are keyed by the canonical hash
//     of the state (field order and formatting independent). The options
//     need no part in the key, since every cold job of one Server runs
//     under the same Config.Core; a clean solved plan is replayed to
//     identical later submissions without solving, with hit/miss
//     counters in the serve.* metrics. Warm re-plans (?prev=) solve with
//     different options and neither read nor write the cache.
//   - Warm re-planning: POST /v1/plans?prev=<id> seeds the new solve
//     with the previous job's assignment (core.Planner.SeedPlan) and
//     turns on basis reuse, so small edits re-prove optimality quickly
//     instead of starting from nothing.
//
// Endpoints:
//
//	POST   /v1/plans[?prev=<id>]   submit a state, get a job id (202;
//	                               200 when answered from cache, 429
//	                               when the queue is full)
//	GET    /v1/plans/{id}          job status + degradation report
//	                               (203 for a degraded terminal plan,
//	                               500 for a failed one)
//	GET    /v1/plans/{id}/plan     the plan JSON, CLI-byte-identical
//	GET    /v1/plans/{id}/events   JSONL trace stream; ?from=N resumes,
//	                               ?follow=0 returns without waiting
//	DELETE /v1/plans/{id}          forget a job
//	GET    /v1/metrics             serve.* metrics snapshot
//	GET    /v1/healthz             liveness + queue/cache occupancy
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Core is the planning configuration applied to every job (the
	// daemon-level analog of the CLI flags). Per-job trace and metrics
	// hooks inside Core.Solver are overridden by the server.
	Core core.Options
	// Queue bounds the number of jobs waiting to solve (default 64).
	// Submissions beyond it are rejected with 429, never blocked.
	Queue int
	// Solvers is the number of concurrent solves (default 1). Total
	// solver parallelism is Solvers × Core.Solver.Workers.
	Solvers int
	// Metrics receives the serve.* counters and gauges. When nil a
	// fresh registry is created; Metrics() returns it either way.
	Metrics *obs.Metrics
}

// Server is the planning daemon. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg   Config
	met   *obs.Metrics
	cache *planCache

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *job
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	closed bool
}

// New starts a Server's solver pool and returns it.
func New(cfg Config) *Server {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Solvers <= 0 {
		cfg.Solvers = 1
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		met:    met,
		cache:  newPlanCache(),
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *job, cfg.Queue),
		jobs:   make(map[string]*job),
	}
	for i := 0; i < cfg.Solvers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.met.SetGauge(obs.MetricServeQueueDepth, float64(len(s.queue)))
				s.solve(ctx, j)
			}
		}()
	}
	return s
}

// Close stops accepting jobs, cancels in-flight solves and waits for
// the solver pool to drain. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	close(s.queue)
	s.wg.Wait()
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Metrics { return s.met }

// Warm solves a state synchronously on the caller's goroutine, outside
// the queue, populating the plan cache exactly as a clean submitted job
// would. It backs the daemon's -preload flag. The solve counts in the
// serve.* job counters (as a submitted-and-finished job) but is never
// registered under a job id. A degraded plan warms nothing but is not
// an error; a failed solve is.
func (s *Server) Warm(ctx context.Context, state *model.AsIsState) error {
	key, err := model.CanonicalHash(state)
	if err != nil {
		return err
	}
	if s.cache.get(key) != nil {
		return nil
	}
	j := &job{
		id:       "warm",
		state:    state,
		cacheKey: key,
		tail:     obs.NewTailSink(),
		status:   StateQueued,
	}
	s.met.Add(obs.MetricServeJobsSubmitted, 1)
	s.met.Add(obs.MetricServeCacheMisses, 1)
	s.solve(ctx, j)
	if st := j.snapshot(); st.State == StateFailed {
		return fmt.Errorf("serve: warm solve of %s failed: %s", state.Name, st.Error)
	}
	return nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plans", s.handleSubmit)
	mux.HandleFunc("GET /v1/plans/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/plans/{id}/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/plans/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/plans/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// jsonError writes a {"error": ...} body with the given status.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit accepts an as-is state and returns a job. The body goes
// through the same decode + validation as the CLI's -state file; ?prev=
// names an earlier job whose plan seeds this solve.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	state, err := model.ReadState(r.Body)
	if err != nil {
		s.met.Add(obs.MetricServeJobsRejected, 1)
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := model.CanonicalHash(state)
	if err != nil {
		s.met.Add(obs.MetricServeJobsRejected, 1)
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var seed *model.Plan
	if prev := r.URL.Query().Get("prev"); prev != "" {
		prevJob := s.lookup(prev)
		if prevJob == nil {
			s.met.Add(obs.MetricServeJobsRejected, 1)
			jsonError(w, http.StatusBadRequest, "unknown previous job %q", prev)
			return
		}
		prevJob.mu.Lock()
		seed = prevJob.plan
		prevJob.mu.Unlock()
		if seed == nil {
			s.met.Add(obs.MetricServeJobsRejected, 1)
			jsonError(w, http.StatusConflict, "previous job %q has no plan to seed from (state %s)", prev, prevJob.snapshot().State)
			return
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jsonError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.nextID++
	j := &job{
		id:       fmt.Sprintf("p%d", s.nextID),
		state:    state,
		cacheKey: key,
		seed:     seed,
		tail:     obs.NewTailSink(),
		status:   StateQueued,
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.met.Add(obs.MetricServeJobsSubmitted, 1)

	// Cold submissions consult the cache; a hit answers immediately
	// with the stored solve's bytes and an already-terminal job.
	if seed == nil {
		if e := s.cache.get(key); e != nil {
			s.met.Add(obs.MetricServeCacheHits, 1)
			j.mu.Lock()
			j.status = StateDone
			j.plan = e.plan
			j.planBytes = e.planBytes
			j.cached = true
			j.mu.Unlock()
			j.tail.Close()
			writeJSON(w, http.StatusOK, j.snapshot())
			return
		}
		s.met.Add(obs.MetricServeCacheMisses, 1)
	}

	select {
	case s.queue <- j:
		s.met.SetGauge(obs.MetricServeQueueDepth, float64(len(s.queue)))
		writeJSON(w, http.StatusAccepted, j.snapshot())
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.met.Add(obs.MetricServeJobsRejected, 1)
		jsonError(w, http.StatusTooManyRequests, "queue full (%d jobs waiting)", s.cfg.Queue)
	}
}

// lookup returns the job with the given id, or nil.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		jsonError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := j.snapshot()
	code := http.StatusOK
	switch st.State {
	case StateDegraded:
		// The HTTP analog of the CLI's exit code 3: you got a plan, it
		// certifies, but it is not a clean proven optimum.
		code = http.StatusNonAuthoritativeInfo
	case StateFailed:
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, st)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		jsonError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	planBytes := j.planBytes
	status := j.status
	j.mu.Unlock()
	if planBytes == nil {
		if status == StateFailed {
			jsonError(w, http.StatusInternalServerError, "job %s failed: %s", j.id, j.snapshot().Error)
			return
		}
		jsonError(w, http.StatusConflict, "job %s is %s; no plan yet", j.id, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(planBytes)
}

// handleEvents streams the job's trace as JSON Lines. ?from=N skips the
// first N events; by default the stream follows live until the job
// reaches a terminal state, ?follow=0 returns whatever exists now.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		jsonError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			jsonError(w, http.StatusBadRequest, "bad from=%q", q)
			return
		}
		from = n
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for {
		evs, done, changed := j.tail.Since(from)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		from += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done || !follow {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.jobs[id]
	delete(s.jobs, id)
	s.mu.Unlock()
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.met.Snapshot().WriteJSON(w); err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"jobs":   jobs,
		"queued": len(s.queue),
		"cached": s.cache.len(),
	})
}
