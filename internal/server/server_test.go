package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tdac"
	"tdac/internal/exam"
	"tdac/internal/truthdata"
)

// examFixture generates a small deterministic Exam 32 dataset.
func examFixture(t *testing.T) *truthdata.Dataset {
	t.Helper()
	d, err := exam.Generate(exam.Config{Attrs: 32, Students: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newTestServer builds a server (with defaults overridable) plus its
// httptest frontend, and tears both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// doJSON performs one request with a JSON body and decodes the JSON
// response into out (when non-nil), returning the status code.
func doJSON(t *testing.T, client *http.Client, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s response (%d): %v\n%s", method, url, resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode
}

// pollJob polls a job until it is terminal, returning the final view.
func pollJob(t *testing.T, client *http.Client, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		code := doJSON(t, client, http.MethodGet, base+"/v1/jobs/"+id, nil, &v)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch v.State {
		case JobDone, JobFailed, JobCancelled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerEndToEnd is the ISSUE's acceptance test: load the exam
// fixture, ingest a batch of claims over HTTP, run a discovery job to
// completion, and assert the job's result is bit-identical to calling
// Discover directly on the same snapshot.
func TestServerEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	if err := s.Registry().Create("exam", examFixture(t)); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()

	// The dataset is visible with its load-time statistics.
	var info map[string]any
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/datasets/exam", nil, &info); code != http.StatusOK {
		t.Fatalf("GET dataset: status %d", code)
	}
	if info["version"].(float64) != 1 {
		t.Fatalf("initial version = %v, want 1", info["version"])
	}

	// Ingest a batch: three late students answering existing questions.
	batch := ingestRequest{Claims: []ClaimInput{
		{Source: "late-student-1", Object: "exam", Attribute: "Math 1A Q1", Value: "42"},
		{Source: "late-student-1", Object: "exam", Attribute: "Physics Q3", Value: "17"},
		{Source: "late-student-2", Object: "exam", Attribute: "Math 1A Q1", Value: "42"},
		{Source: "late-student-2", Object: "exam", Attribute: "Math 1A Q2", Value: "7"},
		{Source: "late-student-3", Object: "exam", Attribute: "Physics Q3", Value: "17"},
	}}
	var ingested datasetInfo
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/exam/claims", batch, &ingested); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if ingested.Version != 2 {
		t.Fatalf("version after ingest = %d, want 2", ingested.Version)
	}

	// Run the discovery job over HTTP.
	var accepted jobView
	code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/exam/discover",
		map[string]any{"algorithm": "Accu"}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("discover: status %d", code)
	}
	if accepted.Snapshot != 2 {
		t.Fatalf("job pinned snapshot %d, want 2", accepted.Snapshot)
	}
	final := pollJob(t, client, ts.URL, accepted.ID)
	if final.State != JobDone {
		t.Fatalf("job state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil || len(final.Result.Truth) == 0 {
		t.Fatal("job result missing")
	}

	// Bit-identical check against the direct library call on the same
	// snapshot (the registry's version 2).
	snap, err := s.Registry().Get("exam")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 {
		t.Fatalf("current snapshot version = %d, want 2", snap.Version)
	}
	direct, err := tdac.Discover(snap.Data, tdac.WithBase("Accu"))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Engine().Get(accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	outcome, _ := job.Outcome()
	if outcome == nil || outcome.TDAC == nil {
		t.Fatal("job outcome missing")
	}
	assertSameResult(t, outcome.TDAC, direct)

	// The rendered wire form matches the direct result cell for cell.
	if len(final.Result.Truth) != len(direct.Truth) {
		t.Fatalf("wire truth has %d cells, direct %d", len(final.Result.Truth), len(direct.Truth))
	}
	for _, cv := range final.Result.Truth {
		// Every wire cell must carry exactly the direct prediction.
		found := false
		for cell, val := range direct.Truth {
			if snap.Data.ObjectName(cell.Object) == cv.Object && snap.Data.AttrName(cell.Attr) == cv.Attribute {
				if val != cv.Value {
					t.Fatalf("cell %s/%s: wire %q, direct %q", cv.Object, cv.Attribute, cv.Value, val)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("wire cell %s/%s not in direct result", cv.Object, cv.Attribute)
		}
	}

	// Metrics reflect the finished job.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		`tdacd_jobs_total{event="done"} 1`,
		`tdacd_runs_total 1`,
		`tdacd_phase_seconds_total{phase="k-sweep"}`,
		"tdacd_datasets 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// assertSameResult asserts two TD-AC results are bit-identical.
func assertSameResult(t *testing.T, got, want *tdac.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Truth, want.Truth) {
		t.Error("Truth maps differ")
	}
	if !reflect.DeepEqual(got.Confidence, want.Confidence) {
		t.Error("Confidence maps differ")
	}
	if !reflect.DeepEqual(got.Trust, want.Trust) {
		t.Error("Trust vectors differ")
	}
	if !reflect.DeepEqual(got.Partition.Canonical(), want.Partition.Canonical()) {
		t.Errorf("Partitions differ: %v vs %v", got.Partition, want.Partition)
	}
	if got.Silhouette != want.Silhouette {
		t.Errorf("Silhouette %v != %v", got.Silhouette, want.Silhouette)
	}
}

// TestServerDiscoverWithSearch runs a sublinear-search job to completion
// and checks it against the direct library call with the same strategy.
func TestServerDiscoverWithSearch(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	if err := s.Registry().Create("exam", examFixture(t)); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	var accepted jobView
	code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/exam/discover",
		map[string]any{"search": "golden"}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("discover: status %d", code)
	}
	final := pollJob(t, client, ts.URL, accepted.ID)
	if final.State != JobDone {
		t.Fatalf("job state = %s (error %q)", final.State, final.Error)
	}
	snap, _ := s.Registry().Get("exam")
	direct, err := tdac.Discover(snap.Data, tdac.WithBase("Accu"), tdac.WithSearch(tdac.SearchGolden))
	if err != nil {
		t.Fatal(err)
	}
	job, _ := s.Engine().Get(accepted.ID)
	outcome, _ := job.Outcome()
	if outcome == nil || outcome.TDAC == nil {
		t.Fatal("job outcome missing")
	}
	assertSameResult(t, outcome.TDAC, direct)
}

// TestServerDiscoverIgnoresParallel pins the deprecated "parallel" field:
// a tdac-mode discover carrying it is accepted, and its result is
// byte-identical to the same request without it (per-group base runs
// always share the workers pool).
func TestServerDiscoverIgnoresParallel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	if err := s.Registry().Create("exam", examFixture(t)); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	result := func(body string) []byte {
		t.Helper()
		var accepted jobView
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/exam/discover", body, &accepted); code != http.StatusAccepted {
			t.Fatalf("discover %s: status %d", body, code)
		}
		final := pollJob(t, client, ts.URL, accepted.ID)
		if final.State != JobDone || final.Result == nil {
			t.Fatalf("discover %s: state %s (error %q)", body, final.State, final.Error)
		}
		final.Result.RuntimeMS = 0
		out, err := json.Marshal(final.Result)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := result(`{"seed":3}`)
	withParallel := result(`{"seed":3,"parallel":true}`)
	if !bytes.Equal(plain, withParallel) {
		t.Errorf("parallel changed the result:\nwithout: %s\nwith:    %s", plain, withParallel)
	}
}

// TestServerBaseModeEndToEnd runs a plain base-algorithm job and checks
// it against tdac.Run on the same snapshot.
func TestServerBaseModeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	if err := s.Registry().Create("d", smallDataset(t, "d")); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	var accepted jobView
	code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/discover",
		map[string]any{"mode": "base", "algorithm": "MajorityVote"}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("discover: status %d", code)
	}
	final := pollJob(t, client, ts.URL, accepted.ID)
	if final.State != JobDone {
		t.Fatalf("job state = %s (error %q)", final.State, final.Error)
	}
	snap, _ := s.Registry().Get("d")
	direct, err := tdac.Run(snap.Data, "MajorityVote")
	if err != nil {
		t.Fatal(err)
	}
	job, _ := s.Engine().Get(accepted.ID)
	outcome, _ := job.Outcome()
	if outcome == nil || outcome.Base == nil {
		t.Fatal("base outcome missing")
	}
	if !reflect.DeepEqual(outcome.Base.Truth, direct.Truth) {
		t.Error("base truth maps differ")
	}
	if !reflect.DeepEqual(outcome.Base.Trust, direct.Trust) {
		t.Error("base trust vectors differ")
	}
}

// TestServer4xxPaths is the table-driven tour of every client-error
// path: bad JSON, unknown datasets/jobs, invalid requests, oversized
// bodies and the queue-full 429.
func TestServer4xxPaths(t *testing.T) {
	f := newFakeRunner()
	s, ts := newTestServer(t, Config{
		Workers:      1,
		QueueSize:    1,
		MaxBodyBytes: 2048,
		MaxDatasets:  2,
		Runner:       f.run,
	})
	if err := s.Registry().Create("d", smallDataset(t, "d")); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Create("empty", nil); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()

	// Saturate the engine: one running job (wait for its start so the
	// queue slot is free), then one queued job filling the slot.
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/discover", "{}", nil); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	<-f.started
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/discover", "{}", nil); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}

	oversized := fmt.Sprintf(`{"claims":[{"source":%q,"object":"o","attribute":"a","value":"v"}]}`,
		strings.Repeat("x", 4096))

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"create: malformed JSON", "POST", "/v1/datasets", `{"name":`, 400},
		{"create: empty body", "POST", "/v1/datasets", "", 400},
		{"create: unknown field", "POST", "/v1/datasets", `{"nome":"x"}`, 400},
		{"create: trailing garbage", "POST", "/v1/datasets", `{"name":"ok"} trailing`, 400},
		{"create: bad name", "POST", "/v1/datasets", `{"name":"no spaces"}`, 400},
		{"create: duplicate", "POST", "/v1/datasets", `{"name":"d"}`, 409},
		{"create: registry full", "POST", "/v1/datasets", `{"name":"third"}`, 429},
		{"ingest: unknown dataset", "POST", "/v1/datasets/nope/claims", `{"claims":[{"source":"s","object":"o","attribute":"a","value":"v"}]}`, 404},
		{"ingest: malformed JSON", "POST", "/v1/datasets/d/claims", `{"claims":[`, 400},
		{"ingest: empty batch", "POST", "/v1/datasets/d/claims", `{}`, 400},
		{"ingest: conflicting claim", "POST", "/v1/datasets/d/claims", `{"claims":[{"source":"s1","object":"o1","attribute":"colour","value":"mauve"}]}`, 400},
		{"ingest: oversized body", "POST", "/v1/datasets/d/claims", oversized, 413},
		{"discover: unknown dataset", "POST", "/v1/datasets/nope/discover", `{}`, 404},
		{"discover: malformed JSON", "POST", "/v1/datasets/d/discover", `{]`, 400},
		{"discover: unknown algorithm", "POST", "/v1/datasets/d/discover", `{"algorithm":"Oracle9000"}`, 400},
		{"discover: bad mode", "POST", "/v1/datasets/d/discover", `{"mode":"psychic"}`, 400},
		{"discover: base mode with tdac options", "POST", "/v1/datasets/d/discover", `{"mode":"base","k_min":2}`, 400},
		{"discover: base mode with parallel", "POST", "/v1/datasets/d/discover", `{"mode":"base","parallel":true}`, 400},
		{"discover: invalid k range", "POST", "/v1/datasets/d/discover", `{"k_min":1,"k_max":0}`, 400},
		{"discover: unknown search", "POST", "/v1/datasets/d/discover", `{"search":"bisect"}`, 400},
		{"discover: base mode with search", "POST", "/v1/datasets/d/discover", `{"mode":"base","search":"golden"}`, 400},
		{"discover: search+sparse_aware", "POST", "/v1/datasets/d/discover", `{"search":"golden","sparse_aware":true}`, 400},
		{"discover: projection+sparse_aware", "POST", "/v1/datasets/d/discover", `{"projection":4,"sparse_aware":true}`, 400},
		{"discover: negative timeout", "POST", "/v1/datasets/d/discover", `{"timeout_ms":-5}`, 400},
		{"discover: empty dataset", "POST", "/v1/datasets/empty/discover", `{}`, 409},
		{"discover: queue full", "POST", "/v1/datasets/d/discover", `{}`, 429},
		{"job: unknown get", "GET", "/v1/jobs/job-404", nil, 404},
		{"job: unknown cancel", "DELETE", "/v1/jobs/job-404", nil, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errResp errorBody
			code := doJSON(t, client, tc.method, ts.URL+tc.path, tc.body, &errResp)
			if code != tc.want {
				t.Fatalf("status = %d, want %d (error %q)", code, tc.want, errResp.Error)
			}
			if errResp.Error == "" {
				t.Fatal("4xx response missing the error envelope")
			}
		})
	}

	// readyz reports the saturated queue, then recovers after drain.
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while saturated: status %d, want 503", code)
	}
	f.release <- struct{}{}
	<-f.started
	f.release <- struct{}{}
	waitReady := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, client, http.MethodGet, ts.URL+"/readyz", nil, nil); code == http.StatusOK {
			break
		}
		if time.Now().After(waitReady) {
			t.Fatal("readyz never recovered after drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatal("healthz not ok")
	}
}

// TestServerIngestPinnedSnapshot: a job pinned at version N is
// unaffected by ingestion racing past it — the result matches a direct
// run on version N, not on the newer data.
func TestServerIngestAfterSubmitDoesNotAffectJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	if err := s.Registry().Create("d", smallDataset(t, "d")); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	pinned, _ := s.Registry().Get("d")

	var accepted jobView
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/discover",
		map[string]any{"mode": "base", "algorithm": "MajorityVote"}, &accepted); code != http.StatusAccepted {
		t.Fatalf("discover: status %d", code)
	}
	// Ingest immediately; the job may or may not have started.
	batch := ingestRequest{Claims: []ClaimInput{
		{Source: "s9", Object: "o1", Attribute: "colour", Value: "blue"},
		{Source: "s10", Object: "o1", Attribute: "colour", Value: "blue"},
		{Source: "s11", Object: "o1", Attribute: "colour", Value: "blue"},
	}}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/claims", batch, nil); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	final := pollJob(t, client, ts.URL, accepted.ID)
	if final.State != JobDone {
		t.Fatalf("job state = %s (error %q)", final.State, final.Error)
	}
	direct, err := tdac.Run(pinned.Data, "MajorityVote")
	if err != nil {
		t.Fatal(err)
	}
	job, _ := s.Engine().Get(accepted.ID)
	outcome, _ := job.Outcome()
	if !reflect.DeepEqual(outcome.Base.Truth, direct.Truth) {
		t.Error("job observed the post-submit ingestion (snapshot isolation broken)")
	}
}

// TestServerShutdownRefusesNewWork: once shutdown starts, submits are
// 503 and readyz reports not-ready, while a running job drains.
func TestServerShutdownRefusesNewWork(t *testing.T) {
	f := newFakeRunner()
	s, err := New(Config{Workers: 1, QueueSize: 4, Runner: f.run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Registry().Create("d", smallDataset(t, "d")); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()

	var accepted jobView
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/discover", "{}", &accepted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-f.started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Wait until the engine flags shutdown, then verify the surface.
	for !s.Engine().ShuttingDown() {
		time.Sleep(time.Millisecond)
	}
	var errResp errorBody
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/discover", "{}", &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: status %d, want 503", code)
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatal("readyz during shutdown should be 503")
	}
	// The in-flight job finishes; shutdown completes cleanly.
	f.release <- struct{}{}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	job, _ := s.Engine().Get(accepted.ID)
	if job.State() != JobDone {
		t.Fatalf("in-flight job state = %s, want done", job.State())
	}
}

// TestServerCancelOverHTTP cancels a running job via DELETE.
func TestServerCancelOverHTTP(t *testing.T) {
	f := newFakeRunner()
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Runner: f.run})
	if err := s.Registry().Create("d", smallDataset(t, "d")); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	var accepted jobView
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/datasets/d/discover", "{}", &accepted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-f.started
	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/jobs/"+accepted.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	final := pollJob(t, client, ts.URL, accepted.ID)
	if final.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
}

// TestServerPprofGate: /debug/pprof is a 404 unless opted in.
func TestServerPprofGate(t *testing.T) {
	_, tsOff := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	resp, err := tsOff.Client().Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	_, tsOn := newTestServer(t, Config{Workers: 1, QueueSize: 1, EnablePprof: true})
	resp, err = tsOn.Client().Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with opt-in: status %d, want 200", resp.StatusCode)
	}
}
