package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"tdac"
	"tdac/internal/algorithms"
	"tdac/internal/fault"
	"tdac/internal/obs"
	"tdac/internal/truthdata"
	"tdac/internal/wal"
)

// Config sizes and hardens one Server. The zero value is usable; every
// field has a production default.
type Config struct {
	// Workers is the discovery worker-pool size (default 2).
	Workers int
	// QueueSize bounds the job backlog (default 64); submits beyond it
	// get 429.
	QueueSize int
	// MaxJobs bounds the finished-job history kept for polling
	// (default 1000).
	MaxJobs int
	// JobTimeout is the per-job deadline applied when a request does not
	// set one; it is also the cap on requested deadlines (default 5m).
	JobTimeout time.Duration
	// RequestTimeout bounds each HTTP request (default 30s). Discovery
	// is asynchronous, so no handler legitimately runs longer.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxDatasets bounds the registry (default 256).
	MaxDatasets int
	// EnablePprof mounts /debug/pprof (off by default: profiling
	// endpoints are opt-in, they expose internals).
	EnablePprof bool
	// EventHeartbeat is the SSE comment-heartbeat period on
	// GET /v1/jobs/{id}/events (default 15s). Heartbeats keep idle
	// streams alive through proxies and let the server notice dead
	// consumers.
	EventHeartbeat time.Duration

	// DataDir enables crash-safe persistence: every committed mutation is
	// journaled to a WAL under this directory and replayed on startup.
	// Empty keeps the server fully in-memory (exactly the pre-WAL
	// behavior).
	DataDir string
	// Fsync is the WAL durability policy (default wal.SyncAlways).
	Fsync wal.SyncMode
	// FsyncInterval is the wal.SyncInterval flush period.
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size (0 = wal default).
	SegmentBytes int64
	// CompactBytes triggers a WAL snapshot once the log grows past it
	// (default 1 MiB).
	CompactBytes int64

	// ShardID names this node's shard in a cluster. Job IDs gain a
	// "<shard>-" prefix so the router can route job polls and event
	// streams back to the shard that owns them. Empty = single node.
	ShardID string
	// Owns reports whether this shard owns a dataset and, when it does
	// not, the owning shard's ID and base URL; dataset-scoped requests
	// for foreign datasets are refused with 421 Misdirected Request
	// carrying the owner so a direct client can re-aim. nil = this node
	// owns every dataset (single-node mode, or routing is left entirely
	// to the router in front).
	Owns func(dataset string) (owned bool, ownerID, ownerURL string)

	// Runner substitutes the job runner; nil = the real pipeline. Tests
	// and cluster e2e harnesses inject deterministic runners through it.
	Runner RunFunc
	// fs and clock substitute the WAL's filesystem and clock in tests
	// (fault injection); nil = the real ones.
	fs    fault.FS
	clock fault.Clock
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1000
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 256
	}
	if c.EventHeartbeat <= 0 {
		c.EventHeartbeat = 15 * time.Second
	}
	return c
}

// Server is the tdacd application: registry + engine + HTTP surface,
// with an optional WAL-backed store underneath.
type Server struct {
	cfg      Config
	registry *Registry
	engine   *Engine
	store    *Store // nil in in-memory mode
	agg      *obs.Aggregate
	handler  http.Handler
	started  time.Time
	// recovered describes what startup replayed from the WAL (nil in
	// in-memory mode; cmd/tdacd logs it).
	recovered *RecoveredState
	// incr caches per-dataset incremental discovery state; fsys is the
	// filesystem its sidecar snapshots persist through.
	incr *incrCache
	fsys fault.FS
}

// New assembles a Server and starts its worker pool. With
// Config.DataDir set it first recovers the journaled state — datasets,
// their versions and every job that reached the queue — and re-enqueues
// the interrupted jobs. Call Shutdown to stop it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := validateShardID(cfg.ShardID); err != nil {
		return nil, err
	}
	agg := obs.NewAggregate()
	s := &Server{
		cfg:     cfg,
		agg:     agg,
		started: time.Now(),
		incr:    newIncrCache(),
		fsys:    cfg.fs,
	}
	if s.fsys == nil {
		s.fsys = fault.OS{}
	}

	if cfg.DataDir != "" {
		store, state, err := openStore(storeConfig{
			Dir:          cfg.DataDir,
			FS:           cfg.fs,
			Clock:        cfg.clock,
			Mode:         cfg.Fsync,
			Interval:     cfg.FsyncInterval,
			SegmentBytes: cfg.SegmentBytes,
			CompactBytes: cfg.CompactBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("server: opening data dir %s: %w", cfg.DataDir, err)
		}
		s.store = store
		s.recovered = state
	}

	s.registry = NewRegistry(cfg.MaxDatasets)
	queueSize := cfg.QueueSize
	var journal jobJournal
	if s.store != nil {
		for _, snap := range s.recovered.Datasets {
			s.registry.install(snap)
		}
		// Every recovered job must re-enqueue even if the configured
		// queue shrank since the last run.
		if n := len(s.recovered.Jobs); n > queueSize {
			queueSize = n
		}
		s.registry.journal = s.store
		journal = s.store
	}

	// The server's runner (not the engine default) so incremental jobs
	// can reach the per-dataset state cache; tests may still substitute
	// their own runner via cfg.Runner.
	run := cfg.Runner
	if run == nil {
		run = s.runSpec
	}
	idPrefix := ""
	if cfg.ShardID != "" {
		idPrefix = cfg.ShardID + "-"
	}
	s.engine = NewEngine(EngineConfig{
		Workers:   cfg.Workers,
		QueueSize: queueSize,
		MaxJobs:   cfg.MaxJobs,
		Run:       run,
		Aggregate: agg,
		Journal:   journal,
		IDPrefix:  idPrefix,
	})
	if s.store != nil {
		s.engine.setNextSeq(s.recovered.NextJob)
		for _, rj := range s.recovered.Jobs {
			spec, err := s.specFromRecovered(rj)
			if err != nil {
				_ = s.engine.Shutdown(context.Background())
				_ = s.store.Close()
				return nil, fmt.Errorf("server: rebuilding recovered job %s: %w", rj.ID, err)
			}
			s.engine.resume(rj.ID, *spec)
		}
	}
	s.handler = s.buildHandler()
	return s, nil
}

// specFromRecovered rebuilds a job spec from its journaled request and
// pinned snapshot.
func (s *Server) specFromRecovered(rj RecoveredJob) (*JobSpec, error) {
	var req discoverRequest
	if err := json.Unmarshal(rj.Request, &req); err != nil {
		return nil, fmt.Errorf("decoding journaled request: %w", err)
	}
	spec, err := s.buildSpec(rj.Snapshot, &req)
	if err != nil {
		return nil, err
	}
	spec.Key = rj.Key
	return spec, nil
}

// Registry exposes the dataset store (preloading, tests).
func (s *Server) Registry() *Registry { return s.registry }

// Engine exposes the job engine (tests, metrics).
func (s *Server) Engine() *Engine { return s.engine }

// Store exposes the durability layer, nil in in-memory mode.
func (s *Server) Store() *Store { return s.store }

// Recovered describes what startup replayed from the WAL, nil in
// in-memory mode.
func (s *Server) Recovered() *RecoveredState { return s.recovered }

// Handler returns the fully middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown gracefully stops the job engine (see Engine.Shutdown for the
// drain semantics) and then closes the WAL, flushing any buffered
// appends. The HTTP listener itself is owned by the caller (cmd/tdacd
// pairs this with http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.engine.Shutdown(ctx)
	if s.store != nil {
		if cerr := s.store.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	return err
}

// buildHandler mounts the API under the robustness middleware. The
// event stream lives outside the request-timeout wrapper: a watch is
// legitimately long-lived, while every other handler stays bounded.
func (s *Server) buildHandler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	api.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	api.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	api.HandleFunc("POST /v1/datasets/{name}/claims", s.handleIngest)
	api.HandleFunc("POST /v1/datasets/{name}/discover", s.handleDiscover)
	api.HandleFunc("GET /v1/jobs", s.handleListJobs)
	api.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	api.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	api.HandleFunc("GET /healthz", s.handleHealthz)
	api.HandleFunc("GET /readyz", s.handleReadyz)
	api.HandleFunc("GET /metrics", s.handleMetrics)
	if s.store != nil {
		api.HandleFunc("GET /v1/wal/segments", s.handleWALManifest)
		api.HandleFunc("GET /v1/wal/segments/{name}", s.handleWALFile)
	}
	if s.cfg.EnablePprof {
		api.HandleFunc("/debug/pprof/", pprof.Index)
		api.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		api.HandleFunc("/debug/pprof/profile", pprof.Profile)
		api.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		api.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	outer := http.NewServeMux()
	outer.HandleFunc("GET /v1/jobs/{id}/events", s.handleWatchJob)
	outer.Handle("/", withTimeout(s.cfg.RequestTimeout, api))
	return withRecover(withBodyLimit(s.cfg.MaxBodyBytes, outer))
}

// ---- dataset handlers -------------------------------------------------

// datasetInfo is the wire form of one registered dataset version.
type datasetInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Sources int    `json:"sources"`
	Objects int    `json:"objects"`
	Attrs   int    `json:"attributes"`
	Claims  int    `json:"claims"`
	Truths  int    `json:"truths"`
}

func infoOf(snap *Snapshot) datasetInfo {
	return datasetInfo{
		Name:    snap.Dataset,
		Version: snap.Version,
		Sources: snap.Data.NumSources(),
		Objects: snap.Data.NumObjects(),
		Attrs:   snap.Data.NumAttrs(),
		Claims:  snap.Data.NumClaims(),
		Truths:  len(snap.Data.Truth),
	}
}

type createDatasetRequest struct {
	Name string `json:"name"`
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	var req createDatasetRequest
	if decodeStrict(w, r, &req) != nil {
		return
	}
	if !s.checkOwner(w, req.Name) {
		return
	}
	if err := s.registry.Create(req.Name, nil); err != nil {
		s.writeRegistryError(w, err)
		return
	}
	snap, _ := s.registry.Get(req.Name)
	writeJSON(w, http.StatusCreated, infoOf(snap))
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.registry.Names()
	out := make([]datasetInfo, 0, len(names))
	for _, n := range names {
		if snap, err := s.registry.Get(n); err == nil {
			out = append(out, infoOf(snap))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	if !s.checkOwner(w, r.PathValue("name")) {
		return
	}
	snap, err := s.registry.Get(r.PathValue("name"))
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	info := infoOf(snap)
	stats := truthdata.ComputeStats(snap.Data)
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       info.Name,
		"version":    info.Version,
		"sources":    info.Sources,
		"objects":    info.Objects,
		"attributes": info.Attrs,
		"claims":     info.Claims,
		"truths":     info.Truths,
		"coverage":   stats.DCR,
	})
}

type ingestRequest struct {
	Claims []ClaimInput `json:"claims"`
	Truth  []TruthInput `json:"truth"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if decodeStrict(w, r, &req) != nil {
		return
	}
	if !s.checkOwner(w, r.PathValue("name")) {
		return
	}
	snap, err := s.registry.Append(r.PathValue("name"), req.Claims, req.Truth)
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, infoOf(snap))
}

// writeRegistryError maps registry errors onto HTTP statuses.
func (s *Server) writeRegistryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownDataset):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrDatasetExists):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrRegistryFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case IsBadInput(err):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrDurability):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// ---- job handlers -----------------------------------------------------

// discoverRequest parameterises one asynchronous discovery run. All
// fields are optional; zero values select the library defaults, so an
// empty body {} runs plain TD-AC with Accu exactly like tdac.Discover.
type discoverRequest struct {
	// Mode is "tdac" (default) or "base".
	Mode string `json:"mode"`
	// Algorithm is the base algorithm name (default "Accu").
	Algorithm string `json:"algorithm"`
	// MaxIterations caps the algorithm's update rounds (both modes;
	// 0 keeps the default 20).
	MaxIterations int `json:"max_iterations"`
	// Epsilon sets the convergence threshold on the trust vector (both
	// modes; 0 keeps the default 1e-3).
	Epsilon float64 `json:"epsilon"`
	// InitialAccuracy seeds the per-source prior of algorithms that have
	// one, in (0,1) (both modes; 0 keeps each algorithm's default).
	InitialAccuracy float64 `json:"initial_accuracy"`
	// Similarity names the value-similarity function of TruthFinder and
	// AccuSim: "exact", "levenshtein", "numeric" or "jaccard" (both
	// modes; "" keeps the algorithm's default). Rejected for algorithms
	// that take no similarity.
	Similarity string `json:"similarity"`
	// Reference overrides the reference algorithm (tdac mode only).
	Reference string `json:"reference"`
	// KMin/KMax bound the explored cluster counts (tdac mode only).
	KMin int `json:"k_min"`
	KMax int `json:"k_max"`
	// Search selects the k-selection strategy: "exhaustive" (default),
	// "golden" or "mdl" (tdac mode only; incompatible with sparse_aware).
	Search string `json:"search"`
	// Parallel is accepted and ignored in tdac mode: per-group base runs
	// always share the Workers pool. It stays for one release so old
	// clients and persisted job records carrying it still decode.
	Parallel bool `json:"parallel"`
	// Workers bounds both worker pools of the run, the k-sweep and the
	// per-group base runs (tdac mode only; 0 means GOMAXPROCS).
	Workers int `json:"workers"`
	// SparseAware switches to the masked encoding (tdac mode only).
	SparseAware bool `json:"sparse_aware"`
	// Projection reduces truth vectors to this dimension (tdac mode only).
	Projection int `json:"projection"`
	// Seed fixes the k-means seed (tdac mode only).
	Seed *int64 `json:"seed"`
	// Incremental reuses the server's per-dataset incremental discovery
	// state: the run syncs the state to the dataset's current snapshot
	// (priming it cold on first use, appending the delta afterwards)
	// instead of recomputing vectors and distances from scratch. Results
	// are bit-identical to a cold run. tdac mode only; incompatible with
	// sparse_aware, projection and a non-MajorityVote reference.
	Incremental bool `json:"incremental"`
	// TimeoutMS overrides the per-job deadline, capped at the server's
	// configured JobTimeout.
	TimeoutMS int64 `json:"timeout_ms"`
	// Key is an optional client-supplied idempotency key: resubmitting
	// with the key of a retained job returns that job (200) instead of
	// enqueuing a duplicate (202). This is what makes client retries of
	// a submit safe.
	Key string `json:"key"`
}

// jobView is the wire form of one job.
type jobView struct {
	ID        string     `json:"id"`
	Dataset   string     `json:"dataset"`
	Snapshot  int        `json:"snapshot_version"`
	Mode      string     `json:"mode"`
	Algorithm string     `json:"algorithm"`
	State     JobState   `json:"state"`
	Enqueued  time.Time  `json:"enqueued_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *jobResult `json:"result,omitempty"`
}

// jobResult is the wire form of a finished discovery.
type jobResult struct {
	Algorithm  string       `json:"algorithm"`
	Silhouette *float64     `json:"silhouette,omitempty"`
	Partition  [][]string   `json:"partition,omitempty"`
	Iterations int          `json:"iterations,omitempty"`
	RuntimeMS  float64      `json:"runtime_ms"`
	Truth      []cellValue  `json:"truth"`
	Trust      []trustValue `json:"trust"`
}

type cellValue struct {
	Object     string   `json:"object"`
	Attribute  string   `json:"attribute"`
	Value      string   `json:"value"`
	Confidence *float64 `json:"confidence,omitempty"`
}

type trustValue struct {
	Source string  `json:"source"`
	Trust  float64 `json:"trust"`
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	if !s.checkOwner(w, r.PathValue("name")) {
		return
	}
	snap, err := s.registry.Get(r.PathValue("name"))
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	var req discoverRequest
	if decodeStrict(w, r, &req) != nil {
		return
	}
	spec, err := s.buildSpec(snap, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if snap.Data.NumClaims() == 0 {
		writeError(w, http.StatusConflict, "dataset %q is empty: ingest claims before discovering", snap.Dataset)
		return
	}
	job, created, err := s.engine.Submit(*spec)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	status := http.StatusAccepted
	if !created {
		// Idempotent resubmit: the key matched a retained job.
		status = http.StatusOK
	}
	writeJSON(w, status, viewOf(job))
}

// buildSpec validates a discover request into a JobSpec; errors are
// client errors.
func (s *Server) buildSpec(snap *Snapshot, req *discoverRequest) (*JobSpec, error) {
	mode := req.Mode
	if mode == "" {
		mode = ModeTDAC
	}
	if mode != ModeTDAC && mode != ModeBase {
		return nil, errors.New(`mode must be "tdac" or "base"`)
	}
	alg := req.Algorithm
	if alg == "" {
		alg = "Accu"
	}
	var baseOpts []tdac.BaseOption
	if req.MaxIterations != 0 {
		baseOpts = append(baseOpts, tdac.WithMaxIterations(req.MaxIterations))
	}
	if req.Epsilon != 0 {
		baseOpts = append(baseOpts, tdac.WithEpsilon(req.Epsilon))
	}
	if req.InitialAccuracy != 0 {
		baseOpts = append(baseOpts, tdac.WithInitialAccuracy(req.InitialAccuracy))
	}
	if req.Similarity != "" {
		f, ok := tdac.SimilarityByName(req.Similarity)
		if !ok {
			return nil, fmt.Errorf("unknown similarity %q (known: exact, levenshtein, numeric, jaccard)", req.Similarity)
		}
		baseOpts = append(baseOpts, tdac.WithSimilarity(f))
	}
	// Resolving the algorithm with its options up front rejects both
	// unknown names and options the algorithm cannot honour (e.g.
	// similarity on Accu) at submit time.
	if _, err := algorithms.New(alg, baseOpts...); err != nil {
		return nil, err
	}
	var opts []tdac.Option
	if mode == ModeTDAC {
		opts = append(opts, tdac.WithBase(alg, baseOpts...))
		if req.Reference != "" {
			if _, err := algorithms.New(req.Reference); err != nil {
				return nil, err
			}
			opts = append(opts, tdac.WithReference(req.Reference))
		}
		if req.KMin != 0 || req.KMax != 0 {
			opts = append(opts, tdac.WithKRange(req.KMin, req.KMax))
		}
		if req.Search != "" {
			opts = append(opts, tdac.WithSearch(req.Search))
		}
		if req.Workers != 0 {
			opts = append(opts, tdac.WithWorkers(req.Workers))
		}
		if req.SparseAware {
			opts = append(opts, tdac.WithSparseAware())
		}
		if req.Projection != 0 {
			opts = append(opts, tdac.WithProjection(req.Projection))
		}
		if req.Seed != nil {
			opts = append(opts, tdac.WithSeed(*req.Seed))
		}
		if req.Incremental {
			// Mirror tdac.WithIncremental's own constraints at submit
			// time: the incremental state machine tracks the dense
			// unmasked encoding under the MajorityVote reference.
			if req.SparseAware {
				return nil, errors.New("incremental discovery is incompatible with sparse_aware")
			}
			if req.Projection != 0 {
				return nil, errors.New("incremental discovery is incompatible with projection")
			}
			if req.Reference != "" && req.Reference != "MajorityVote" {
				return nil, fmt.Errorf("incremental discovery requires the MajorityVote reference, not %q", req.Reference)
			}
		}
	} else {
		switch {
		case req.Reference != "", req.KMin != 0, req.KMax != 0, req.Search != "",
			req.Parallel, req.Workers != 0, req.SparseAware, req.Projection != 0,
			req.Seed != nil, req.Incremental:
			return nil, errors.New(`mode "base" accepts only algorithm, its tuning fields (max_iterations, epsilon, initial_accuracy, similarity) and timeout_ms`)
		}
		if len(baseOpts) > 0 {
			opts = append(opts, tdac.WithBase(alg, baseOpts...))
		}
	}
	// Dry-run the option set so invalid combinations (e.g. projection
	// with sparse_aware) fail the submit, not the job.
	if err := tdac.ValidateOptions(opts...); err != nil {
		return nil, err
	}
	timeout := s.cfg.JobTimeout
	if req.TimeoutMS < 0 {
		return nil, errors.New("timeout_ms must be non-negative")
	}
	if req.TimeoutMS > 0 {
		requested := time.Duration(req.TimeoutMS) * time.Millisecond
		if requested < timeout {
			timeout = requested
		}
	}
	if len(req.Key) > 128 {
		return nil, errors.New("key exceeds 128 characters")
	}
	// The canonical request form is journaled with the submit so a
	// restarted server can rebuild the job through this same function.
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return &JobSpec{
		Snapshot:    snap,
		Mode:        mode,
		Algorithm:   alg,
		Options:     opts,
		Timeout:     timeout,
		Key:         req.Key,
		Request:     raw,
		Incremental: req.Incremental,
	}, nil
}

// writeEngineError maps engine errors onto HTTP statuses.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrDurability):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.engine.Jobs()
	out := make([]jobView, 0, len(jobs))
	for _, j := range jobs {
		v := viewOf(j)
		v.Result = nil // listing stays light; poll the job for results
		out = append(out, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, alreadyTerminal, err := s.engine.Cancel(id)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	if alreadyTerminal {
		// Cancelling a finished job is a conflict, not a success: the
		// body carries the terminal state so the client learns what
		// actually happened to the job.
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("job %q is already terminal", id),
			"state": state,
		})
		return
	}
	j, err := s.engine.Get(id)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

// viewOf renders a job for the wire. It is a package function (not a
// Server method) because the engine's event stream renders the same
// view for "state" frames — one encoder, one shape, byte-identical.
func viewOf(j *Job) jobView {
	enq, started, finished := j.Times()
	v := jobView{
		ID:        j.ID,
		Dataset:   j.Spec.Snapshot.Dataset,
		Snapshot:  j.Spec.Snapshot.Version,
		Mode:      j.Spec.Mode,
		Algorithm: j.Spec.Algorithm,
		State:     j.State(),
		Enqueued:  enq,
	}
	if !started.IsZero() {
		v.Started = &started
	}
	if !finished.IsZero() {
		v.Finished = &finished
	}
	outcome, errMsg := j.Outcome()
	v.Error = errMsg
	if outcome != nil {
		v.Result = renderOutcome(j.Spec.Snapshot.Data, outcome)
	}
	return v
}

// renderOutcome converts a pipeline result into the name-based wire
// form, deterministically ordered.
func renderOutcome(d *truthdata.Dataset, o *JobOutcome) *jobResult {
	out := &jobResult{}
	var truth map[truthdata.Cell]string
	var confidence map[truthdata.Cell]float64
	var trust []float64
	switch {
	case o.TDAC != nil:
		r := o.TDAC
		out.Algorithm = "TD-AC"
		sil := r.Silhouette
		out.Silhouette = &sil
		out.RuntimeMS = float64(r.Runtime) / float64(time.Millisecond)
		for _, group := range r.Partition {
			names := make([]string, 0, len(group))
			for _, a := range group {
				names = append(names, d.AttrName(a))
			}
			sort.Strings(names)
			out.Partition = append(out.Partition, names)
		}
		truth, confidence, trust = r.Truth, r.Confidence, r.Trust
	case o.Base != nil:
		r := o.Base
		out.Algorithm = r.Algorithm
		out.Iterations = r.Iterations
		out.RuntimeMS = float64(r.Runtime) / float64(time.Millisecond)
		truth, trust = r.Truth, r.Trust
	default:
		return nil
	}
	out.Truth = make([]cellValue, 0, len(truth))
	for cell, val := range truth {
		cv := cellValue{
			Object:    d.ObjectName(cell.Object),
			Attribute: d.AttrName(cell.Attr),
			Value:     val,
		}
		if confidence != nil {
			if c, ok := confidence[cell]; ok {
				conf := c
				cv.Confidence = &conf
			}
		}
		out.Truth = append(out.Truth, cv)
	}
	sort.Slice(out.Truth, func(i, j int) bool {
		if out.Truth[i].Object != out.Truth[j].Object {
			return out.Truth[i].Object < out.Truth[j].Object
		}
		return out.Truth[i].Attribute < out.Truth[j].Attribute
	})
	out.Trust = make([]trustValue, 0, len(trust))
	for i, t := range trust {
		out.Trust = append(out.Trust, trustValue{Source: d.SourceName(truthdata.SourceID(i)), Trust: t})
	}
	return out
}

// ---- operational handlers --------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz gates load balancing: not ready while shutting down,
// while the WAL is failed (writes would only 503), or while the job
// queue is saturated (new discoveries would only 429). 503 responses
// carry Retry-After and the current queue depth so clients and probes
// can back off intelligently.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.engine.QueueDepth(), s.engine.QueueCapacity()
	notReady := func(reason string) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":          reason,
			"queue_depth":    depth,
			"queue_capacity": capacity,
		})
	}
	switch {
	case s.engine.ShuttingDown():
		notReady("shutting down")
	case s.store != nil && s.store.Failed() != nil:
		notReady(fmt.Sprintf("durability failure: %v", s.store.Failed()))
	case s.engine.Saturated():
		notReady(fmt.Sprintf("job queue saturated (%d/%d)", depth, capacity))
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ready",
			"queue_depth":    depth,
			"queue_capacity": capacity,
		})
	}
}
