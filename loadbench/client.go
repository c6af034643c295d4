package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
)

// client talks to one deployment over loopback with at most maxConns
// connections, shared by the senders, the scraper and the ingest driver.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, maxConns int) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 20 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				MaxIdleConns:        maxConns,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// request builds the HTTP request an Op describes.
func (c *client) request(ctx context.Context, op Op, traced bool) (*http.Request, error) {
	var req *http.Request
	var err error
	qv := url.Values{}
	if op.Dataset != "" {
		qv.Set("dataset", op.Dataset)
	}
	switch op.Kind {
	case "query":
		body, _ := json.Marshal(map[string]any{"query": op.Query, "k": op.K, "offset": op.Offset, "rewrite": op.Rewrite})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/v1/query?"+qv.Encode(), bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case "tag", "value":
		qv.Set("kind", op.Kind)
		qv.Set("path", op.Path)
		if op.Axis != "" {
			qv.Set("axis", op.Axis)
		}
		qv.Set("prefix", op.Prefix)
		qv.Set("k", strconv.Itoa(op.K))
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/complete?"+qv.Encode(), nil)
	case "explain":
		qv.Set("path", op.Path)
		qv.Set("axis", op.Axis)
		qv.Set("tag", op.Tag)
		qv.Set("max", strconv.Itoa(op.K))
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/explain?"+qv.Encode(), nil)
	default:
		return nil, fmt.Errorf("op kind %q has no request form", op.Kind)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		// The passive mode: the response carries the span tree, the request
		// still serves through the hot-path caches.
		req.Header.Set("X-Lotusx-Trace", "sample")
	}
	return req, nil
}

// get performs a request and returns status and body.
func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

// ------------------------------------------------------- response shapes

type wireAnswer struct {
	Node       int32            `json:"node"`
	Path       string           `json:"path"`
	Score      float64          `json:"score"`
	Snippet    string           `json:"snippet"`
	Shard      string           `json:"shard,omitempty"`
	Rewrite    string           `json:"rewrite,omitempty"`
	Penalty    float64          `json:"penalty,omitempty"`
	Highlights []core.Highlight `json:"highlights,omitempty"`
}

type queryResp struct {
	Answers    []wireAnswer     `json:"answers"`
	Exact      int              `json:"exact"`
	Total      int              `json:"total"`
	Offset     int              `json:"offset"`
	NextOffset int              `json:"nextOffset"`
	Partial    bool             `json:"partial"`
	Trace      *json.RawMessage `json:"trace"`
}

type completeResp struct {
	Candidates []complete.Candidate `json:"candidates"`
	Trace      *json.RawMessage     `json:"trace"`
}

type explainResp struct {
	Tag         string                `json:"tag"`
	Occurrences []complete.Occurrence `json:"occurrences"`
}

// validate checks one response: its status, its v1 envelope and, for
// queries, the paging contract.
func validate(op Op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	dec := func(v any) error {
		d := json.NewDecoder(bytes.NewReader(body))
		d.DisallowUnknownFields()
		return d.Decode(v)
	}
	switch op.Kind {
	case "query":
		var r struct {
			queryResp
			Rewrites  int     `json:"rewritesTried"`
			Algorithm string  `json:"algorithm"`
			Shards    int     `json:"shards"`
			Failed    any     `json:"failedShards"`
			Elapsed   float64 `json:"elapsedMs"`
			XQuery    string  `json:"xquery"`
		}
		if err := dec(&r); err != nil {
			return fmt.Errorf("query envelope: %w", err)
		}
		return checkPaging(op, &r.queryResp)
	case "tag", "value":
		var r completeResp
		if err := dec(&r); err != nil {
			return fmt.Errorf("complete envelope: %w", err)
		}
		if len(r.Candidates) > op.K {
			return fmt.Errorf("complete: %d candidates for k=%d", len(r.Candidates), op.K)
		}
	case "explain":
		var r explainResp
		if err := dec(&r); err != nil {
			return fmt.Errorf("explain envelope: %w", err)
		}
		if r.Tag != op.Tag || len(r.Occurrences) > op.K {
			return fmt.Errorf("explain: tag %q with %d occurrences for %q max %d", r.Tag, len(r.Occurrences), op.Tag, op.K)
		}
	}
	return nil
}

// checkPaging enforces the query paging contract: total counts answers
// materialized up to offset+k, the page holds the answers past the offset,
// and nextOffset is set exactly when the cut may have hidden more.
func checkPaging(op Op, r *queryResp) error {
	k := op.K
	if k == 0 {
		k = 10
	}
	want := min(k, max(0, r.Total-op.Offset))
	switch {
	case r.Partial:
		return fmt.Errorf("paging: partial answer")
	case r.Offset != op.Offset:
		return fmt.Errorf("paging: offset %d echoed as %d", op.Offset, r.Offset)
	case r.Total > op.Offset+k:
		return fmt.Errorf("paging: total %d beyond offset+k %d", r.Total, op.Offset+k)
	case len(r.Answers) != want:
		return fmt.Errorf("paging: %d answers, want %d (total %d, offset %d)", len(r.Answers), want, r.Total, op.Offset)
	case r.Total == op.Offset+k && r.NextOffset != r.Total:
		return fmt.Errorf("paging: full page but nextOffset %d", r.NextOffset)
	case r.Total < op.Offset+k && r.NextOffset != 0:
		return fmt.Errorf("paging: last page but nextOffset %d", r.NextOffset)
	case r.Exact > len(r.Answers):
		return fmt.Errorf("paging: exact %d > %d answers", r.Exact, len(r.Answers))
	}
	return nil
}
