// Package client is the Go client for a tdacd truth-discovery server.
// It wraps the HTTP/JSON API with context-aware retries: transient
// failures (429, 503, connection errors) back off exponentially with
// full jitter, Retry-After headers are honored, and job submission is
// made safe to retry by attaching an idempotency key the server
// deduplicates on — a resubmitted discovery returns the original job
// instead of enqueueing a second run. See README.md "Operating tdacd".
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"tdac/internal/deadline"
)

// Retry tunes the backoff schedule. The zero value means "use the
// defaults" (5 attempts, 100ms base, 5s cap).
type Retry struct {
	// MaxAttempts bounds tries per call, first attempt included.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule: the nth retry waits a
	// uniformly jittered duration in (0, BaseDelay·2ⁿ].
	BaseDelay time.Duration
	// MaxDelay caps a single wait, including server-sent Retry-After.
	MaxDelay time.Duration
}

func (r Retry) withDefaults() Retry {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 5
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 100 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 5 * time.Second
	}
	return r
}

// Client talks to one tdacd server. Safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	retry Retry

	mu  sync.Mutex
	rng *mrand.Rand // jitter; guarded by mu
}

// Option customises New.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// servers). The default is a client with a 30s overall timeout.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetry replaces the retry schedule.
func WithRetry(r Retry) Option { return func(c *Client) { c.retry = r.withDefaults() } }

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8321").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{
		base:  strings.TrimRight(u.String(), "/"),
		http:  &http.Client{Timeout: 30 * time.Second},
		retry: Retry{}.withDefaults(),
		rng:   mrand.New(mrand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// APIError is a non-2xx response decoded from the server's
// {"error": "..."} body.
type APIError struct {
	Status  int
	Message string
	// State is set on 409 job-cancel conflicts: the job's terminal state.
	State string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("tdacd: %s (HTTP %d)", e.Message, e.Status)
}

// IsTerminalConflict reports whether err is the 409 a DELETE on an
// already-finished job returns, and if so that job's terminal state.
func IsTerminalConflict(err error) (state string, ok bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusConflict && ae.State != "" {
		return ae.State, true
	}
	return "", false
}

// ---- wire types --------------------------------------------------------

// Claim is one (source, object, attribute, value) observation.
type Claim struct {
	Source    string `json:"source"`
	Object    string `json:"object"`
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
}

// Truth is one ground-truth cell.
type Truth struct {
	Object    string `json:"object"`
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
}

// DatasetInfo summarises a registered dataset version.
type DatasetInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Sources int    `json:"sources"`
	Objects int    `json:"objects"`
	Attrs   int    `json:"attributes"`
	Claims  int    `json:"claims"`
	Truths  int    `json:"truths"`
}

// DiscoverRequest configures a discovery job; zero values take the
// server's defaults (TD-AC mode, Accu base algorithm).
type DiscoverRequest struct {
	Mode      string `json:"mode,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Reference string `json:"reference,omitempty"`
	KMin      int    `json:"k_min,omitempty"`
	KMax      int    `json:"k_max,omitempty"`
	// Parallel is ignored by the server: per-group base runs always
	// share the Workers pool.
	//
	// Deprecated: the field goes in the next release; leave it unset.
	Parallel bool `json:"parallel,omitempty"`
	// Workers bounds both worker pools of the run, the k-sweep and the
	// per-group base runs (0 means the server's GOMAXPROCS).
	Workers     int    `json:"workers,omitempty"`
	SparseAware bool   `json:"sparse_aware,omitempty"`
	Projection  int    `json:"projection,omitempty"`
	Seed        *int64 `json:"seed,omitempty"`
	// Incremental asks the server to reuse its per-dataset incremental
	// discovery state: successive discoveries over a growing dataset pay
	// only for the appended claims, with results bit-identical to a cold
	// run. TD-AC mode only.
	Incremental bool `json:"incremental,omitempty"`
	TimeoutMS   int  `json:"timeout_ms,omitempty"`
	// Key is the idempotency key. Leave empty: Discover generates one,
	// which is what makes its retries safe.
	Key string `json:"key,omitempty"`
}

// Job is the server's view of a submitted discovery.
type Job struct {
	ID        string     `json:"id"`
	Dataset   string     `json:"dataset"`
	Snapshot  int        `json:"snapshot_version"`
	Mode      string     `json:"mode"`
	Algorithm string     `json:"algorithm"`
	State     string     `json:"state"`
	Enqueued  time.Time  `json:"enqueued_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *Result    `json:"result,omitempty"`
}

// Terminal reports whether the job has stopped moving.
func (j *Job) Terminal() bool {
	switch j.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// Result is a finished discovery: per-cell truth and per-source trust.
type Result struct {
	Algorithm  string       `json:"algorithm"`
	Silhouette *float64     `json:"silhouette,omitempty"`
	Partition  [][]string   `json:"partition,omitempty"`
	Iterations int          `json:"iterations,omitempty"`
	RuntimeMS  float64      `json:"runtime_ms"`
	Truth      []CellValue  `json:"truth"`
	Trust      []TrustValue `json:"trust"`
}

// CellValue is one discovered (object, attribute) → value cell.
type CellValue struct {
	Object     string   `json:"object"`
	Attribute  string   `json:"attribute"`
	Value      string   `json:"value"`
	Confidence *float64 `json:"confidence,omitempty"`
}

// TrustValue is one source's final trust score.
type TrustValue struct {
	Source string  `json:"source"`
	Trust  float64 `json:"trust"`
}

// ---- API calls ---------------------------------------------------------

// CreateDataset registers an empty dataset. Not retried on transport
// errors (a lost response could mask an AlreadyExists on the retry);
// 429/503 rejections are retried since nothing was applied.
func (c *Client) CreateDataset(ctx context.Context, name string) (*DatasetInfo, error) {
	var info DatasetInfo
	err := c.call(ctx, http.MethodPost, "/v1/datasets", map[string]string{"name": name}, &info, false)
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// GetDataset fetches one dataset's stats. Safe to retry.
func (c *Client) GetDataset(ctx context.Context, name string) (*DatasetInfo, error) {
	var info DatasetInfo
	err := c.call(ctx, http.MethodGet, "/v1/datasets/"+url.PathEscape(name), nil, &info, true)
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// Ingest appends a batch of claims (and optional truth) to a dataset,
// returning the new version. Ingestion is not idempotent, so transport
// errors after the request may have been applied are NOT retried —
// only clean 429/503 rejections are.
func (c *Client) Ingest(ctx context.Context, dataset string, claims []Claim, truth []Truth) (*DatasetInfo, error) {
	var info DatasetInfo
	body := map[string]any{"claims": claims}
	if len(truth) > 0 {
		body["truth"] = truth
	}
	path := "/v1/datasets/" + url.PathEscape(dataset) + "/claims"
	if err := c.call(ctx, http.MethodPost, path, body, &info, false); err != nil {
		return nil, err
	}
	return &info, nil
}

// Discover submits a discovery job. When req.Key is empty a random
// idempotency key is attached first, making the whole call — transport
// errors included — safe to retry: the server returns the already-
// submitted job instead of enqueueing a duplicate.
func (c *Client) Discover(ctx context.Context, dataset string, req DiscoverRequest) (*Job, error) {
	if req.Key == "" {
		req.Key = newKey()
	}
	var job Job
	path := "/v1/datasets/" + url.PathEscape(dataset) + "/discover"
	if err := c.call(ctx, http.MethodPost, path, req, &job, true); err != nil {
		return nil, err
	}
	return &job, nil
}

// GetJob polls one job. Safe to retry.
func (c *Client) GetJob(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job, true); err != nil {
		return nil, err
	}
	return &job, nil
}

// CancelJob cancels a queued or running job. Cancelling a job that
// already finished returns an *APIError with status 409 whose State
// field carries the terminal state (see IsTerminalConflict).
func (c *Client) CancelJob(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.call(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &job, true); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait polls a job until it is terminal or ctx ends, whichever comes
// first. poll ≤ 0 defaults to 250ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		job, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Run is the convenience loop: submit and wait.
func (c *Client) Run(ctx context.Context, dataset string, req DiscoverRequest) (*Job, error) {
	job, err := c.Discover(ctx, dataset, req)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, job.ID, 0)
}

// ---- transport ---------------------------------------------------------

// retryStatus reports whether an HTTP status is a transient rejection:
// the server refused the request without applying it.
func retryStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// call performs one API request with the retry schedule. idempotent
// additionally allows retrying after transport errors, where the
// request may or may not have reached the server.
func (c *Client) call(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt, lastErr)); err != nil {
				return err
			}
		}
		err := c.do(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var ae *APIError
		switch {
		case errors.As(err, &ae):
			if !retryStatus(ae.Status) {
				return err // a definitive answer; retrying cannot change it
			}
		case ctx.Err() != nil:
			return err
		case !idempotent:
			return err // ambiguous transport failure on a non-idempotent call
		}
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.retry.MaxAttempts, lastErr)
}

// do performs a single HTTP exchange. Every exchange starts at c.base
// — owner resolution is per-attempt and never cached, so after a
// cluster reshuffle or failover the next retry re-resolves through the
// router instead of pinning a stale shard.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	return c.doAt(ctx, c.base, method, path, body, out, true)
}

// doAt performs one exchange against a specific base URL. followOwner
// permits one hop on a 421 Misdirected Request: a shard that does not
// own the dataset names its owner, and the call is re-issued there —
// once, so two misconfigured shards pointing at each other fail fast
// instead of looping.
func (c *Client) doAt(ctx context.Context, base, method, path string, body []byte, out any, followOwner bool) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	deadline.Stamp(req.Header, ctx)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode == http.StatusMisdirectedRequest && followOwner {
		if owner := ownerFromMisdirect(data); owner != "" {
			return c.doAt(ctx, owner, method, path, body, out, false)
		}
	}
	if resp.StatusCode >= 300 {
		ae := &APIError{Status: resp.StatusCode, Message: http.StatusText(resp.StatusCode)}
		var decoded struct {
			Error string `json:"error"`
			State string `json:"state"`
		}
		if json.Unmarshal(data, &decoded) == nil && decoded.Error != "" {
			ae.Message = decoded.Error
			ae.State = decoded.State
		}
		if ra := retryAfter(resp); ra > 0 {
			// Smuggle the server's hint to backoff via the error chain.
			return &retryAfterError{APIError: ae, after: ra}
		}
		return ae
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// ownerFromMisdirect extracts the owning shard's URL from a 421 body
// ({"error": ..., "shard": id, "owner": url}), "" when absent.
func ownerFromMisdirect(data []byte) string {
	var mis struct {
		Owner string `json:"owner"`
	}
	if json.Unmarshal(data, &mis) != nil {
		return ""
	}
	return strings.TrimRight(mis.Owner, "/")
}

// retryAfterError carries a server-sent Retry-After alongside the API
// error. errors.As still finds the *APIError.
type retryAfterError struct {
	*APIError
	after time.Duration
}

func (e *retryAfterError) Unwrap() error { return e.APIError }

// retryAfter parses a Retry-After header in either RFC 9110 form:
// delay-seconds ("120") or an HTTP-date ("Fri, 08 Aug 2026 12:00:00
// GMT"). Past dates and negative delays clamp to 0, and anything
// unparseable is treated as absent rather than failing the response.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		return max(time.Until(at), 0)
	}
	return 0
}

// backoff computes the wait before the given (1-based) retry attempt:
// the server's Retry-After when sent, otherwise full-jitter
// exponential backoff, both capped at MaxDelay.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	var rae *retryAfterError
	if errors.As(lastErr, &rae) {
		return min(rae.after, c.retry.MaxDelay)
	}
	ceil := time.Duration(float64(c.retry.BaseDelay) * math.Pow(2, float64(attempt-1)))
	ceil = min(ceil, c.retry.MaxDelay)
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.mu.Unlock()
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// newKey returns a 128-bit random idempotency key.
func newKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to time-seeded.
		return fmt.Sprintf("key-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
