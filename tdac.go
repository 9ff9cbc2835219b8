// Package tdac implements TD-AC — Truth Discovery with Attribute
// Clustering (Tossou & Ba, EDBT 2021) — together with the standard truth
// discovery algorithms it builds on and compares against.
//
// Truth discovery takes conflicting claims made by many sources about the
// attributes of real-world objects and predicts which value is true, with
// no prior knowledge of source reliability. When groups of attributes are
// structurally correlated — every source keeps one reliability level
// within a group but different levels across groups — running one
// algorithm over all attributes biases the reliability estimates. TD-AC
// fixes this by abstracting the truth into per-attribute truth vectors,
// clustering them with k-means scored by the silhouette index, and
// running the base algorithm independently on every attribute cluster.
//
// # Quick start
//
//	b := tdac.NewBuilder("my-data")
//	b.Claim("source-1", "object-1", "colour", "red")
//	b.Claim("source-2", "object-1", "colour", "blue")
//	// ... more claims ...
//	ds, err := b.Build()
//	if err != nil { ... }
//	result, err := tdac.Discover(ds, tdac.WithBase("Accu"))
//	if err != nil { ... }
//	fmt.Println(result.Truth)     // predicted value per (object, attribute)
//	fmt.Println(result.Partition) // the attribute partition TD-AC selected
//
// The base algorithm can be any registered name (see Algorithms):
// MajorityVote, TruthFinder, Accu, AccuSim, Depen (Dong et al. 2009),
// Sums, AverageLog, Investment, PooledInvestment (Pasternack & Roth
// 2010), TwoEstimates, ThreeEstimates (Galland et al. 2010), CRH (Li et
// al. 2014) and SimpleLCA (Pasternack & Roth 2013). Base algorithms can
// also be run directly, without the TD-AC wrapper, via Run.
package tdac

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"tdac/internal/algorithms"
	"tdac/internal/core"
	"tdac/internal/metrics"
	"tdac/internal/obs"
	"tdac/internal/partition"
	"tdac/internal/similarity"
	"tdac/internal/truthdata"
)

// Re-exported identifier types of the data model.
type (
	// SourceID identifies a source within a Dataset.
	SourceID = truthdata.SourceID
	// ObjectID identifies an object within a Dataset.
	ObjectID = truthdata.ObjectID
	// AttrID identifies an attribute within a Dataset.
	AttrID = truthdata.AttrID
	// Cell is one (object, attribute) pair with exactly one true value.
	Cell = truthdata.Cell
	// Claim is a single observation by a source about a cell.
	Claim = truthdata.Claim
	// Dataset is the (sources, attributes, objects, claims) bundle all
	// algorithms consume.
	Dataset = truthdata.Dataset
	// Builder assembles a Dataset from string-named claims.
	Builder = truthdata.Builder
	// Stats summarises a dataset (source/object/attribute/observation
	// counts and the data coverage rate).
	Stats = truthdata.Stats
	// Partition is a set partition of a dataset's attributes.
	Partition = partition.Partition
	// Report carries precision, recall, accuracy, F1 and cell accuracy
	// of a prediction against ground truth.
	Report = metrics.Report
)

// Re-exported observability types (see WithStats and WithEvents). A
// RunStats tree carries phase-scoped wall times, per-k clustering
// convergence, per-group base-run cost, distance-cache reuse and
// allocation deltas for one run; Render or String turn it into an
// indented human-readable tree and encoding/json into a stable
// machine-readable shape (the one cmd/tdacbench records).
type (
	// RunStats is the full observation tree of one run.
	RunStats = obs.RunStats
	// PhaseStats is one phase's wall time within a RunStats tree.
	PhaseStats = obs.PhaseStats
	// SweepStats describes one k-sweep: range, workers and per-k records.
	SweepStats = obs.SweepStats
	// KStats records the clustering of one explored cluster count.
	KStats = obs.KStats
	// MatrixStats describes a pairwise distance-matrix build.
	MatrixStats = obs.MatrixStats
	// CacheStats counts distance-matrix reuse across a run.
	CacheStats = obs.CacheStats
	// GroupStats records one per-group base-algorithm run.
	GroupStats = obs.GroupStats
	// MemoryStats holds allocation deltas over a run.
	MemoryStats = obs.MemoryStats
	// Phase identifies one pipeline stage in a RunStats tree.
	Phase = obs.Phase
	// Event is one streaming pipeline observation (see WithEvents).
	Event = obs.Event
	// EventKind classifies a streaming Event.
	EventKind = obs.EventKind
	// EventSink receives streaming Events while a run is in flight.
	EventSink = obs.EventSink
)

// The streaming event kinds delivered to a WithEvents sink: phase
// brackets, per-k sweep progress and per-group base-run completions.
const (
	EventPhaseStart = obs.EventPhaseStart
	EventPhaseEnd   = obs.EventPhaseEnd
	EventK          = obs.EventK
	EventGroup      = obs.EventGroup
)

// The pipeline phases observers see, in execution order. A TD-AC
// Discover passes through Index → Reference → TruthVectors →
// DistanceMatrix → KSweep → BaseRuns → Merge; a base-algorithm Run has
// the single Discover phase; CheckStability repeats DistanceMatrix and
// KSweep once per reseeded run.
const (
	PhaseIndex          = obs.PhaseIndex
	PhaseReference      = obs.PhaseReference
	PhaseTruthVectors   = obs.PhaseTruthVectors
	PhaseDistanceMatrix = obs.PhaseDistanceMatrix
	PhaseKSweep         = obs.PhaseKSweep
	PhaseBaseRuns       = obs.PhaseBaseRuns
	PhaseMerge          = obs.PhaseMerge
	PhaseDiscover       = obs.PhaseDiscover
	// PhaseIncrementalSync replaces Index/Reference/TruthVectors and the
	// matrix build on the incremental path (see WithIncremental).
	PhaseIncrementalSync = obs.PhaseIncrementalSync
)

// NewBuilder returns a builder for a dataset with the given name.
func NewBuilder(name string) *Builder { return truthdata.NewBuilder(name) }

// ComputeStats derives Table 8-style statistics, including the DCR.
func ComputeStats(d *Dataset) Stats { return truthdata.ComputeStats(d) }

// ReadClaimsCSV parses "source,object,attribute,value" records.
func ReadClaimsCSV(r io.Reader, name string) (*Dataset, error) {
	return truthdata.ReadClaimsCSV(r, name)
}

// ReadTruthCSV merges "object,attribute,value" ground truth into d.
func ReadTruthCSV(r io.Reader, d *Dataset) error { return truthdata.ReadTruthCSV(r, d) }

// WriteClaimsCSV writes d's claims in the claims CSV format.
func WriteClaimsCSV(w io.Writer, d *Dataset) error { return truthdata.WriteClaimsCSV(w, d) }

// WriteTruthCSV writes d's ground truth in the truth CSV format.
func WriteTruthCSV(w io.Writer, d *Dataset) error { return truthdata.WriteTruthCSV(w, d) }

// ReadJSON deserialises a dataset written by WriteJSON.
func ReadJSON(r io.Reader) (*Dataset, error) { return truthdata.ReadJSON(r) }

// WriteJSON serialises the full dataset, ground truth included.
func WriteJSON(w io.Writer, d *Dataset) error { return truthdata.WriteJSON(w, d) }

// Algorithms lists the registered base algorithm names.
func Algorithms() []string { return algorithms.Names() }

// Result is the outcome of a TD-AC run: the predicted truth plus the
// partitioning decisions behind it.
type Result struct {
	// Truth maps every claimed cell to its predicted true value.
	Truth map[Cell]string
	// Confidence maps every claimed cell to the confidence score of the
	// predicted value, in the base algorithm's own scale.
	Confidence map[Cell]float64
	// Trust is the final per-source reliability estimate.
	Trust []float64
	// Partition is the attribute partition TD-AC selected; a single
	// group when the dataset has fewer than three attributes.
	Partition Partition
	// Silhouette is the silhouette value of the selected partition.
	Silhouette float64
	// Runtime is the wall-clock duration of the whole run.
	Runtime time.Duration
	// Stats is the observation tree of the run; nil unless WithStats or
	// WithEvents was passed.
	Stats *RunStats
}

// Option configures Discover, DiscoverContext, Run, RunContext,
// CheckStability and CheckStabilityContext. Every entry point accepts
// the same option type and routes it through one shared configuration
// builder; an option an entry point cannot honour is reported as an
// error instead of being silently dropped (Run honours only WithBase,
// WithStats and WithEvents; CheckStability rejects WithIncremental).
type Option func(*config) error

// optSet is a bitmask of which options were explicitly set, so entry
// points can reject the ones they cannot honour by name.
type optSet uint

const (
	optBase optSet = 1 << iota
	optReference
	optKRange
	optSearch
	optWorkers
	optProjection
	optSparseAware
	optSeed
	optStats
	optEvents
	optIncremental
)

var optNames = []struct {
	bit  optSet
	name string
}{
	{optBase, "WithBase"},
	{optReference, "WithReference"},
	{optKRange, "WithKRange"},
	{optSearch, "WithSearch"},
	{optWorkers, "WithWorkers"},
	{optProjection, "WithProjection"},
	{optSparseAware, "WithSparseAware"},
	{optSeed, "WithSeed"},
	{optStats, "WithStats"},
	{optEvents, "WithEvents"},
	{optIncremental, "WithIncremental"},
}

// names renders the set bits as a comma-separated option list.
func (s optSet) names() string {
	out := ""
	for _, o := range optNames {
		if s&o.bit != 0 {
			if out != "" {
				out += ", "
			}
			out += o.name
		}
	}
	return out
}

type config struct {
	base        string
	baseOpts    []BaseOption
	reference   string
	refOpts     []BaseOption
	minK        int
	maxK        int
	search      string
	masked      bool
	seed        int64
	workers     int
	projectDim  int
	stats       bool
	events      EventSink
	incremental *IncrementalState
	set         optSet
}

// apply runs the options over a default config.
func newConfig(opts []Option) (*config, error) {
	cfg := &config{base: "Accu"}
	for _, o := range opts {
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// reject errors when any option in mask was explicitly set — the shared
// "cannot honour" guard of the restricted entry points.
func (c *config) reject(mask optSet, entry, hint string) error {
	if bad := c.set & mask; bad != 0 {
		return fmt.Errorf("tdac: %s cannot honour %s (%s)", entry, bad.names(), hint)
	}
	return nil
}

// recorder builds the run's Recorder: nil (collection off) unless
// WithStats or WithEvents asked for observation.
func (c *config) recorder() *obs.Recorder {
	if !c.stats {
		return nil
	}
	return obs.NewRecorder(c.events)
}

// buildTDAC is the single shared config→core.TDAC wiring used by every
// entry point, so no option can be honoured by one and dropped by
// another.
func buildTDAC(cfg *config) (*core.TDAC, error) {
	if cfg.masked && cfg.projectDim > 0 {
		return nil, fmt.Errorf("tdac: WithProjection cannot be combined with WithSparseAware (the mask markers do not survive projection)")
	}
	if cfg.incremental != nil {
		if cfg.masked {
			return nil, fmt.Errorf("tdac: WithIncremental cannot be combined with WithSparseAware (the incremental geometry is pinned to the dense Hamming pipeline)")
		}
		if cfg.projectDim > 0 {
			return nil, fmt.Errorf("tdac: WithIncremental cannot be combined with WithProjection (projected geometry cannot be patched per attribute row)")
		}
		switch cfg.reference {
		case "":
			// With a maintained state the reference defaults to
			// MajorityVote — the only reference whose truth updates
			// bit-identically under appends — not to the base algorithm.
			cfg.reference = "MajorityVote"
		case "MajorityVote":
		default:
			return nil, fmt.Errorf("tdac: WithIncremental requires a MajorityVote reference, not WithReference(%q)", cfg.reference)
		}
	}
	base, err := algorithms.New(cfg.base, cfg.baseOpts...)
	if err != nil {
		return nil, err
	}
	t := core.New(base)
	if cfg.reference != "" {
		ref, err := algorithms.New(cfg.reference, cfg.refOpts...)
		if err != nil {
			return nil, err
		}
		t.Reference = ref
	}
	t.MinK, t.MaxK = cfg.minK, cfg.maxK
	t.Search = cfg.search
	if cfg.search != "" && cfg.search != core.SearchExhaustive && cfg.masked {
		return nil, fmt.Errorf("tdac: WithSearch(%q) cannot be combined with WithSparseAware (the sublinear strategies warm-start from the dense dendrogram geometry)", cfg.search)
	}
	t.Masked = cfg.masked
	t.Workers = cfg.workers
	t.ProjectDim = cfg.projectDim
	t.KMeans.Seed = cfg.seed
	return t, nil
}

// BaseOption tunes the algorithm selected by WithBase or WithReference —
// iteration cap, convergence threshold, prior accuracy, value similarity.
// The constructors are WithMaxIterations, WithEpsilon,
// WithInitialAccuracy and WithSimilarity; an option the named algorithm
// cannot honour (WithSimilarity on Accu, anything on MajorityVote) is
// reported as an error by the entry point, never silently dropped.
type BaseOption = algorithms.Option

// SimilarityFunc scores how similar two claimed values are, in [0,1];
// 1 means identical. Implementations must be symmetric. See
// SimilarityByName for the built-in registry.
type SimilarityFunc = similarity.Func

// WithMaxIterations caps the algorithm's update rounds (default 20).
func WithMaxIterations(n int) BaseOption { return algorithms.WithMaxIterations(n) }

// WithEpsilon sets the convergence threshold on the trust vector
// (default 1e-3).
func WithEpsilon(eps float64) BaseOption { return algorithms.WithEpsilon(eps) }

// WithInitialAccuracy seeds the per-source prior of the algorithms that
// have one (TruthFinder's trust, the Accu family's accuracy, Galland's
// error rate, SimpleLCA's honesty), in (0,1).
func WithInitialAccuracy(a float64) BaseOption { return algorithms.WithInitialAccuracy(a) }

// WithSimilarity sets the value-similarity function of the algorithms
// that let similar values support each other (TruthFinder, AccuSim).
func WithSimilarity(f SimilarityFunc) BaseOption { return algorithms.WithSimilarity(f) }

// SimilarityByName resolves a built-in similarity function from its
// registry name — "exact", "levenshtein", "numeric" or "jaccard" — the
// form serving frontends accept; the bool reports whether the name is
// known.
func SimilarityByName(name string) (SimilarityFunc, bool) { return similarity.ByName(name) }

// WithBase selects the base algorithm F (default "Accu", the paper's
// choice), optionally tuned: WithBase("TruthFinder",
// tdac.WithMaxIterations(50), tdac.WithSimilarity(sim)).
func WithBase(name string, opts ...BaseOption) Option {
	return func(c *config) error {
		c.base, c.baseOpts = name, opts
		c.set |= optBase
		return nil
	}
}

// WithReference selects the algorithm producing the reference truth for
// the attribute truth vectors, with the same optional tuning as
// WithBase. Default: the base algorithm itself (including its options).
func WithReference(name string, opts ...BaseOption) Option {
	return func(c *config) error {
		c.reference, c.refOpts = name, opts
		c.set |= optReference
		return nil
	}
}

// WithKRange bounds the cluster counts explored (default [2, |A|-1], as
// in the paper's Algorithm 1). minK must be at least 2; maxK = 0 keeps
// the |A|-1 default upper bound, any other maxK must not be below minK.
// A minK larger than the dataset's |A|-1 is rejected at run time, when
// the attribute count is known.
func WithKRange(minK, maxK int) Option {
	return func(c *config) error {
		if minK < 2 {
			return fmt.Errorf("tdac: WithKRange(%d,%d): minK must be at least 2 — a single cluster has no silhouette to score", minK, maxK)
		}
		if maxK < 0 {
			return fmt.Errorf("tdac: WithKRange(%d,%d): maxK cannot be negative (pass maxK=0 for the |A|-1 default)", minK, maxK)
		}
		if maxK != 0 && maxK < minK {
			return fmt.Errorf("tdac: WithKRange(%d,%d): inverted range, maxK is below minK (pass maxK=0 for the |A|-1 default)", minK, maxK)
		}
		c.minK, c.maxK = minK, maxK
		c.set |= optKRange
		return nil
	}
}

// The k-selection strategies accepted by WithSearch.
const (
	// SearchExhaustive scores every k in the range — the paper's
	// Algorithm 1 sweep and the default.
	SearchExhaustive = core.SearchExhaustive
	// SearchGolden probes the silhouette-vs-k curve with a golden-section
	// bracket and an envelope early stop.
	SearchGolden = core.SearchGolden
	// SearchMDL scans k ascending under an MDL-style stopping rule.
	SearchMDL = core.SearchMDL
)

// WithSearch selects the k-selection strategy of the partition stage
// (default SearchExhaustive, the paper's full sweep over [2, |A|-1]).
// The sublinear strategies — SearchGolden and SearchMDL — build one
// agglomerative dendrogram from the shared distance matrix, warm-start
// every probed k-means from the corresponding dendrogram cut, and probe
// only a few cluster counts instead of all of them: golden-section
// narrowing with an envelope early stop, or an ascending scan under an
// MDL stopping rule. On large attribute sets they cut the number of k
// evaluations by an order of magnitude (see cmd/tdacbench's search
// section) while still selecting the best silhouette among the probed
// ks. Both are deterministic and incremental-safe, but require the
// built-in k-means clusterer and the dense geometry: combining them
// with WithSparseAware is rejected.
func WithSearch(strategy string) Option {
	return func(c *config) error {
		switch strategy {
		case SearchExhaustive, SearchGolden, SearchMDL:
		default:
			return fmt.Errorf("tdac: WithSearch(%q): unknown strategy (known: %q, %q, %q)",
				strategy, SearchExhaustive, SearchGolden, SearchMDL)
		}
		c.search = strategy
		c.set |= optSearch
		return nil
	}
}

// WithWorkers bounds both worker pools of a run: the k-sweep's
// independent k-means + silhouette evaluations for different cluster
// counts, and the per-group base runs on the selected partition (the
// paper's future-work item (ii)). Each pool runs on up to n goroutines.
// n = 0 (the default) means runtime.GOMAXPROCS; n = 1 runs both
// sequentially. Results are bit-identical for any n — every k derives
// its randomness from the base seed, never from scheduling order, and
// every group writes only its own result slot.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("tdac: WithWorkers(%d): worker count cannot be negative", n)
		}
		c.workers = n
		c.set |= optWorkers
		return nil
	}
}

// WithProjection reduces the attribute truth vectors to dim dimensions
// with a Johnson–Lindenstrauss random projection before clustering — a
// running-time lever for very large |O|·|S|. Projection implies
// Euclidean geometry on the projected vectors and is incompatible with
// WithSparseAware.
func WithProjection(dim int) Option {
	return func(c *config) error {
		if dim <= 0 {
			return fmt.Errorf("tdac: WithProjection(%d): dimension must be positive", dim)
		}
		c.projectDim = dim
		c.set |= optProjection
		return nil
	}
}

// WithSparseAware switches the truth vectors and clustering distance to
// the missing-claim-masked encoding, which helps on low-coverage data
// (the paper's future-work item (i)).
func WithSparseAware() Option {
	return func(c *config) error { c.masked = true; c.set |= optSparseAware; return nil }
}

// WithSeed fixes the k-means seed (default 1; all runs are deterministic
// either way).
func WithSeed(seed int64) Option {
	return func(c *config) error { c.seed = seed; c.set |= optSeed; return nil }
}

// WithStats collects a RunStats observation tree over the run — phase
// wall times, per-k convergence, per-group base-run cost, distance-cache
// reuse and allocation deltas — exposed on the result's Stats field.
// Observation never alters results: a stats-on run is bit-identical to a
// stats-off one (pinned by TestStatsObservationIsInert). The overhead is
// a few time.Now calls per phase, ≤ 2% on the k-sweep benchmark.
func WithStats() Option {
	return func(c *config) error { c.stats = true; c.set |= optStats; return nil }
}

// WithEvents streams fine-grained pipeline events to fn while the run
// is in flight: phase starts and ends, every explored k of the sweep
// with its silhouette, and every finished per-group base run. It is the
// push counterpart of WithStats (which it implies — the full RunStats
// tree is still collected) and feeds the daemon's job event stream.
// Events from parallel stages arrive in completion order, which is
// scheduling-dependent; do not infer determinism from event order.
// Filter for EventPhaseEnd to get each phase's (Phase, Elapsed) pair as
// it completes. fn runs on the pipeline's critical path and may be
// called concurrently — keep it fast and concurrency-safe. Event
// emission never alters results: an observed run is bit-identical to an
// unobserved one.
func WithEvents(fn EventSink) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("tdac: WithEvents(nil): sink must not be nil")
		}
		c.events = fn
		c.stats = true
		c.set |= optEvents
		return nil
	}
}

// IncrementalState carries TD-AC's discovery prologue — the MajorityVote
// reference tallies, the attribute truth vectors, the packed distance
// geometry — across growing versions of one dataset. Pass the same
// state to successive Discover calls via WithIncremental: when the new
// dataset is an append-extension of the previously discovered one, only
// the cells touched by the appended claims are reprocessed, instead of
// rebuilding everything from scratch. Results are bit-identical to a
// cold run either way (pinned by the incremental-vs-cold invariant and
// FuzzIncrementalAppend); a dataset that is not an extension silently
// falls back to a cold rebuild, so a state is never wrong, at worst not
// faster. A state must not be shared by concurrent Discover calls.
type IncrementalState struct {
	st *core.IncrementalState
}

// NewIncrementalState returns an empty state for WithIncremental; the
// first Discover through it pays the full cold cost and primes it.
func NewIncrementalState() *IncrementalState {
	return &IncrementalState{st: core.NewIncrementalState()}
}

// SnapshotJSON serialises the state's maintained maps (tallies and
// reference truth — the geometry is re-derived on restore) into a
// stable JSON form: equal states marshal byte-identically. It errors on
// a state that has never been primed by a Discover call.
func (st *IncrementalState) SnapshotJSON() ([]byte, error) {
	snap := st.st.Snapshot()
	if snap == nil {
		return nil, fmt.Errorf("tdac: incremental state has not been primed; nothing to snapshot")
	}
	return json.Marshal(snap)
}

// RestoreJSON loads a SnapshotJSON payload taken against exactly
// dataset version d, replacing the state's contents. A payload that is
// torn, malformed or describes any other dataset version returns an
// error and leaves st unchanged; the caller should fall back to a cold
// prime — a bad snapshot costs a rebuild, never a wrong result.
func (st *IncrementalState) RestoreJSON(d *Dataset, raw []byte) error {
	var snap core.StateSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("tdac: decoding incremental state snapshot: %w", err)
	}
	restored, err := core.RestoreState(d, &snap)
	if err != nil {
		return err
	}
	st.st = restored
	return nil
}

// WithIncremental reuses st's maintained prologue for this run (see
// IncrementalState). The incremental geometry is pinned to the default
// dense pipeline: WithSparseAware and WithProjection are rejected, and
// the reference must be MajorityVote — WithReference may name it
// explicitly, and defaults to it (not to the base algorithm) when this
// option is present.
func WithIncremental(st *IncrementalState) Option {
	return func(c *config) error {
		if st == nil || st.st == nil {
			return fmt.Errorf("tdac: WithIncremental(nil): state must come from NewIncrementalState")
		}
		c.incremental = st
		c.set |= optIncremental
		return nil
	}
}

// ValidateOptions checks an option list for well-formedness and mutual
// consistency — unknown algorithm names, invalid ranges, incompatible
// combinations (WithProjection + WithSparseAware) — without running
// anything. Serving frontends use it as a submit-time guard: cmd/tdacd
// rejects a bad request with a 400 instead of enqueueing a job doomed to
// fail.
func ValidateOptions(opts ...Option) error {
	cfg, err := newConfig(opts)
	if err != nil {
		return err
	}
	_, err = buildTDAC(cfg)
	return err
}

// Discover runs TD-AC (Algorithm 1 of the paper) on the dataset. It is
// DiscoverContext with context.Background().
func Discover(d *Dataset, opts ...Option) (*Result, error) {
	return DiscoverContext(context.Background(), d, opts...)
}

// DiscoverContext runs TD-AC (Algorithm 1 of the paper) on the dataset
// under a context. Cancellation aborts the k-sweep at k granularity,
// stops per-group base runs from starting and — for the built-in
// algorithms — interrupts the reference and base runs at their next
// update round; an already-cancelled context returns promptly without
// touching the data.
func DiscoverContext(ctx context.Context, d *Dataset, opts ...Option) (*Result, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	t, err := buildTDAC(cfg)
	if err != nil {
		return nil, err
	}
	t.Recorder = cfg.recorder()
	var out *core.Outcome
	if cfg.incremental != nil {
		out, err = t.RunWithState(ctx, d, cfg.incremental.st)
	} else {
		out, err = t.RunContext(ctx, d)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Truth:      out.Truth,
		Confidence: out.Confidence,
		Trust:      out.Trust,
		Partition:  out.Partition,
		Silhouette: out.Silhouette,
		Runtime:    out.Runtime,
		Stats:      out.Stats,
	}, nil
}

// BaseResult is the outcome of running a base algorithm directly.
type BaseResult struct {
	// Algorithm is the name of the algorithm that ran.
	Algorithm string
	// Truth maps every claimed cell to its predicted true value.
	Truth map[Cell]string
	// Trust is the final per-source reliability estimate.
	Trust []float64
	// Iterations counts the update rounds executed.
	Iterations int
	// Runtime is the wall-clock duration of the run.
	Runtime time.Duration
	// Stats is the observation tree of the run (a single Discover
	// phase); nil unless WithStats or WithEvents was passed.
	Stats *RunStats
}

// Run executes a registered base algorithm by name, without attribute
// partitioning. It is RunContext with context.Background().
func Run(d *Dataset, algorithm string, opts ...Option) (*BaseResult, error) {
	return RunContext(context.Background(), d, algorithm, opts...)
}

// RunContext executes a registered base algorithm by name under a
// context. The built-in algorithms run on the indexed hot path, which
// checks the context at every update round, so a deadline interrupts
// even a slow run mid-algorithm; an already-cancelled context returns
// its error without touching the data. Only WithStats, WithEvents and
// WithBase are honoured here — WithBase must repeat the algorithm name
// and exists to carry BaseOptions (WithMaxIterations and friends) into
// the run; every other option is rejected with an error rather than
// silently ignored.
func RunContext(ctx context.Context, d *Dataset, algorithm string, opts ...Option) (*BaseResult, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.reject(^(optStats | optEvents | optBase), "Run",
		"it runs the base algorithm directly, without TD-AC's partitioning; only WithStats, WithEvents and WithBase apply"); err != nil {
		return nil, err
	}
	if cfg.set&optBase != 0 && cfg.base != algorithm {
		return nil, fmt.Errorf("tdac: Run(%q) with WithBase(%q): the names must agree (WithBase carries options for the algorithm Run already names)", algorithm, cfg.base)
	}
	alg, err := algorithms.New(algorithm, cfg.baseOpts...)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec := cfg.recorder()
	rec.Start()
	done := rec.Phase(PhaseDiscover)
	res, err := algorithms.DiscoverContext(ctx, alg, d)
	if err != nil {
		return nil, err
	}
	done()
	return &BaseResult{
		Algorithm:  res.Algorithm,
		Truth:      res.Truth,
		Trust:      res.Trust,
		Iterations: res.Iterations,
		Runtime:    res.Runtime,
		Stats:      rec.Finish(),
	}, nil
}

// Evaluate scores a prediction against the dataset's ground truth using
// the paper's metrics (precision, recall, accuracy, F1 at claim level,
// plus per-cell accuracy).
func Evaluate(d *Dataset, predicted map[Cell]string) Report {
	return metrics.Evaluate(d, predicted)
}

// Merge combines several datasets by matching sources, objects and
// attributes by name; conflicting ground truths or claims are an error.
func Merge(name string, datasets ...*Dataset) (*Dataset, error) {
	return truthdata.Merge(name, datasets...)
}

// FilterSources returns a copy of d keeping only claims of sources
// accepted by keep; source identities are preserved.
func FilterSources(d *Dataset, keep func(SourceID, string) bool) *Dataset {
	return truthdata.FilterSources(d, keep)
}

// WithoutSource returns a copy of d with one source's claims removed —
// the building block of leave-one-source-out influence analysis.
func WithoutSource(d *Dataset, s SourceID) *Dataset { return truthdata.WithoutSource(d, s) }

// FilterObjects returns a copy of d keeping only claims and truths about
// objects accepted by keep.
func FilterObjects(d *Dataset, keep func(ObjectID, string) bool) *Dataset {
	return truthdata.FilterObjects(d, keep)
}

// SplitObjects partitions d's objects into two datasets by fraction, for
// holdout experiments.
func SplitObjects(d *Dataset, frac float64) (*Dataset, *Dataset, error) {
	return truthdata.SplitObjects(d, frac)
}

// SourceAccuracy returns each source's true accuracy on cells with known
// ground truth, plus its evaluable claim count.
func SourceAccuracy(d *Dataset) (acc []float64, n []int) { return metrics.SourceAccuracy(d) }

// Stability reports how consistently TD-AC selects its partition when
// the clustering is reseeded (see CheckStability).
type Stability struct {
	// MeanRandIndex is the mean pairwise Rand index across runs; near 1
	// means the silhouette landscape has one clear optimum.
	MeanRandIndex float64
	// Modal is the most frequently selected partition and ModalShare the
	// fraction of runs selecting it.
	Modal      Partition
	ModalShare float64
	// Silhouettes holds each run's best silhouette value.
	Silhouettes []float64
	// Stats is the observation tree of the whole check — one
	// reference/truth-vectors prologue plus one distance-matrix/k-sweep
	// pair per reseeded run; nil unless WithStats or WithEvents was
	// passed.
	Stats *RunStats
}

// CheckStability reruns TD-AC's partition selection under `runs`
// different clustering seeds and reports agreement — a practical warning
// signal on low-coverage data where the truth vectors are too sparse to
// cluster reliably (the regime of the paper's Figure 5). It is
// CheckStabilityContext with context.Background().
func CheckStability(d *Dataset, runs int, opts ...Option) (*Stability, error) {
	return CheckStabilityContext(context.Background(), d, runs, opts...)
}

// CheckStabilityContext is CheckStability under a context: cancellation
// aborts between reseeded runs and inside each run's k-sweep. It accepts
// the same option set as DiscoverContext, except WithIncremental:
// incremental state applies only to Discover, so that option is
// rejected with an error rather than silently ignored.
func CheckStabilityContext(ctx context.Context, d *Dataset, runs int, opts ...Option) (*Stability, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.reject(optIncremental, "CheckStability",
		"incremental state applies only to Discover"); err != nil {
		return nil, err
	}
	t, err := buildTDAC(cfg)
	if err != nil {
		return nil, err
	}
	t.Recorder = cfg.recorder()
	st, err := t.CheckStabilityContext(ctx, d, runs)
	if err != nil {
		return nil, err
	}
	return &Stability{
		MeanRandIndex: st.MeanRandIndex,
		Modal:         st.Modal,
		ModalShare:    st.ModalShare,
		Silhouettes:   st.Silhouettes,
		Stats:         st.Stats,
	}, nil
}

// ValueVotes describes one candidate value of a cell: who claimed it and
// how much trust those sources carry under a given result.
type ValueVotes struct {
	// Value is the claimed value.
	Value string
	// Sources lists the names of the sources claiming it.
	Sources []string
	// TrustSum is the sum of the result's trust scores over Sources
	// (zero when no trust vector is supplied).
	TrustSum float64
	// Chosen marks the value the prediction selected.
	Chosen bool
}

// Inspect explains a prediction: it returns, for one cell, every claimed
// value with its voters and their aggregate trust under the supplied
// trust vector (pass a Result's or BaseResult's Trust; nil is allowed).
// The slice is ordered by descending vote count, ties by value. Useful
// for auditing why an algorithm preferred one value over another.
//
// Lookups go through the dataset's cached cell index, so auditing costs
// O(votes of the cell) per call instead of a linear scan of every claim;
// the first Inspect on a dataset compiles the index (see the caveat on
// mutating a dataset after that). Duplicate identical claims collapse to
// a single vote, as everywhere else in the evaluation.
func Inspect(d *Dataset, cell Cell, predicted map[Cell]string, trust []float64) []ValueVotes {
	ix := d.Index()
	ci, ok := ix.CellIdx[cell]
	if !ok {
		return nil
	}
	cc := &ix.Cells[ci]
	chosen := predicted[cell]
	out := make([]ValueVotes, 0, len(cc.Values))
	for vi, val := range cc.Values {
		v := ValueVotes{
			Value:   val,
			Chosen:  val == chosen,
			Sources: make([]string, 0, len(cc.Voters[vi])),
		}
		for _, s := range cc.Voters[vi] {
			v.Sources = append(v.Sources, d.SourceName(s))
			if int(s) < len(trust) {
				v.TrustSum += trust[s]
			}
		}
		sort.Strings(v.Sources)
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Sources) != len(out[j].Sources) {
			return len(out[i].Sources) > len(out[j].Sources)
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// AttrReport is the per-attribute slice of an evaluation (see
// EvaluatePerAttribute).
type AttrReport = metrics.AttrReport

// EvaluatePerAttribute breaks an evaluation down by attribute — the
// natural view for structurally correlated data, where whole attribute
// groups succeed or fail together.
func EvaluatePerAttribute(d *Dataset, predicted map[Cell]string) []AttrReport {
	return metrics.PerAttribute(d, predicted)
}
