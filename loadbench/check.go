package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/twig"
)

// refData is the in-process twin of one served dataset.
type refData struct {
	kind    string
	name    string // the ?dataset= value
	doc     *doc.Document
	whole   *core.Engine // generators read its DataGuide
	backend core.Backend // same topology as the server: engine or split corpus
	gd      *genData
}

// datasetSeed is the server's default -seed: the benchmark varies the
// request stream with --seed, never the served data.
const datasetSeed = 42

// buildRefs builds the twins of every dataset the workload serves.
func buildRefs(w *Workload) ([]*refData, error) {
	var refs []*refData
	for _, kind := range w.Datasets {
		d, err := dataset.Build(dataset.Kind(kind), w.Scale, datasetSeed)
		if err != nil {
			return nil, err
		}
		r := &refData{kind: kind, name: w.requestDataset(kind), doc: d, whole: core.FromDocument(d)}
		r.backend = r.whole
		if w.Shards > 1 {
			c, err := corpus.FromDocument(r.name, d, w.Shards, corpus.Config{})
			if err != nil {
				return nil, err
			}
			r.backend = c
		}
		r.gd = newGenData(kind, r.name, r.whole.Guide())
		refs = append(refs, r)
	}
	return refs, nil
}

func refFor(refs []*refData, name string) *refData {
	for _, r := range refs {
		if r.name == name {
			return r
		}
	}
	return nil
}

// canonQuery is the part of a query response that must match the in-process
// evaluation: the ranked page and the paging fields.
type canonQuery struct {
	Answers    []wireAnswer
	Exact      int
	Total      int
	NextOffset int
}

func parsePath(path string) (*twig.Query, int, error) {
	if path == "" {
		return nil, complete.NewRoot, nil
	}
	q, err := twig.Parse(path)
	if err != nil {
		return nil, 0, err
	}
	return q, q.OutputNode().ID, nil
}

func parseAxis(a string) twig.Axis {
	if a == "descendant" || a == "//" {
		return twig.Descendant
	}
	return twig.Child
}

// searchOpts maps a query op onto the options the server derives from it.
func searchOpts(op Op) core.SearchOptions {
	return core.SearchOptions{K: op.K, Offset: op.Offset, Rewrite: op.Rewrite, SnippetMax: 400}
}

// expected evaluates op in process against b and renders the canonical
// response.  With router set it evaluates what a router's shard servers
// evaluate — the query as the router re-renders and forwards it, whose
// re-parse may number query nodes differently (see routerRenumbered) — and
// blanks shard names, which differ between remote shards and the local
// split.
func expected(ctx context.Context, b core.Backend, op Op, router bool) ([]byte, error) {
	dropShard := router
	switch op.Kind {
	case "query":
		q, err := twig.Parse(op.Query)
		if err == nil && router {
			q, err = twig.Parse(q.String())
		}
		if err != nil {
			return nil, err
		}
		res, err := b.SearchHits(ctx, q, searchOpts(op))
		if err != nil {
			return nil, err
		}
		c := canonQuery{Exact: res.Exact, Total: res.Total}
		k := op.K
		if k == 0 {
			k = 10
		}
		if res.Total == op.Offset+k {
			c.NextOffset = res.Total
		}
		for _, h := range res.Hits {
			a := wireAnswer{Node: int32(h.Node), Path: h.Path, Score: h.Score, Snippet: h.Snippet,
				Shard: h.Shard, Rewrite: h.Rewrite, Penalty: h.Penalty, Highlights: h.Highlights}
			if dropShard {
				a.Shard = ""
			}
			c.Answers = append(c.Answers, a)
		}
		return roundTrip(c)
	case "tag", "value", "explain":
		q, focus, err := parsePath(op.Path)
		if err != nil {
			return nil, err
		}
		var v any
		switch op.Kind {
		case "tag":
			v, err = b.CompleteTags(ctx, q, focus, parseAxis(op.Axis), op.Prefix, op.K)
		case "value":
			v, err = b.CompleteValues(ctx, q, focus, op.Prefix, op.K)
		default:
			v, err = b.ExplainTags(ctx, q, focus, parseAxis(op.Axis), op.Tag, op.K)
		}
		if err != nil {
			return nil, err
		}
		return roundTrip(v)
	}
	return nil, fmt.Errorf("op kind %q is not checked", op.Kind)
}

// observed renders a server response in the same canonical form.
func observed(op Op, body []byte, dropShard bool) ([]byte, error) {
	switch op.Kind {
	case "query":
		var r queryResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		c := canonQuery{Answers: r.Answers, Exact: r.Exact, Total: r.Total, NextOffset: r.NextOffset}
		if dropShard {
			for i := range c.Answers {
				c.Answers[i].Shard = ""
			}
		}
		return roundTrip(c)
	case "tag", "value":
		var r completeResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return roundTrip(r.Candidates)
	case "explain":
		var r explainResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return roundTrip(r.Occurrences)
	}
	return nil, fmt.Errorf("op kind %q is not checked", op.Kind)
}

// roundTrip marshals v, decodes it back into a generic value and marshals
// again, so nil and empty slices and float renderings compare equal.
func roundTrip(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var g any
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, err
	}
	return json.Marshal(g)
}

// sample is one checked response kept for comparison after the timed run.
type sample struct {
	op   Op
	body []byte
}

// routerRenumbered counts checked router query responses whose answers
// differ from an evaluation of the client's own query text: the router
// forwards q.String() and the shards' re-parse can renumber the query nodes
// that highlights refer to.  It is reported, not counted as a failure.
func routerRenumbered(ctx context.Context, refs []*refData, samples []sample) (n int) {
	for _, s := range samples {
		r := refFor(refs, s.op.Dataset)
		if s.op.Kind != "query" || r == nil {
			continue
		}
		q, err := twig.Parse(s.op.Query)
		if err != nil {
			continue
		}
		res, err := r.backend.SearchHits(ctx, q, searchOpts(s.op))
		if err != nil {
			continue
		}
		var got queryResp
		if json.Unmarshal(s.body, &got) != nil || len(got.Answers) != len(res.Hits) {
			continue
		}
		for i, h := range res.Hits {
			want, _ := json.Marshal(h.Highlights)
			have, _ := json.Marshal(got.Answers[i].Highlights)
			if !bytes.Equal(want, have) {
				n++
				break
			}
		}
	}
	return n
}

// compareSamples evaluates every kept sample in process and reports the
// mismatches.
func compareSamples(ctx context.Context, refs []*refData, samples []sample, router bool) []error {
	var errs []error
	for _, s := range samples {
		r := refFor(refs, s.op.Dataset)
		if r == nil {
			errs = append(errs, fmt.Errorf("no reference for dataset %q", s.op.Dataset))
			continue
		}
		want, err := expected(ctx, r.backend, s.op, router)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s %+v: in-process evaluation: %w", s.op.Kind, s.op, err))
			continue
		}
		got, err := observed(s.op, s.body, router)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s %+v: decoding response: %w", s.op.Kind, s.op, err))
			continue
		}
		if !bytes.Equal(want, got) {
			errs = append(errs, fmt.Errorf("%s mismatch for %+v:\n  server:     %.300s\n  in-process: %.300s", s.op.Kind, s.op, got, want))
		}
	}
	return errs
}
