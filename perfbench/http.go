package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"time"

	"tdac/client"
)

// newHTTPClient returns a client holding at most one keep-alive
// connection per host, so each load goroutine owns one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}
}

// exchange is one measured HTTP request: when it was sent, when the
// request was written, the first response byte arrived and the body was
// fully read.
type exchange struct {
	status                           int
	body                             []byte
	sent, wrote, firstByte, lastByte time.Time
}

// do sends one request and reads the whole body. A transport error or
// an unreadable body is an error; any status is returned as is.
func do(ctx context.Context, hc *http.Client, method, url string, body []byte) (*exchange, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	ex := &exchange{}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { ex.wrote = time.Now() },
		GotFirstResponseByte: func() { ex.firstByte = time.Now() },
	})
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	ex.sent = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	ex.body, err = io.ReadAll(resp.Body)
	ex.lastByte = time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	ex.status = resp.StatusCode
	return ex, nil
}

// requestTimeout bounds every request; a request that runs out counts
// as a failed op.
const requestTimeout = 30 * time.Second

// decodeJob decodes a job body the way the client package does.
func decodeJob(body []byte) (*client.Job, error) {
	var j client.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return nil, fmt.Errorf("decoding job: %w", err)
	}
	return &j, nil
}

// mustJSON encodes a request body built from fixed types.
func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}
