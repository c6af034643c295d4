package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lotusx/internal/dataguide"
	"lotusx/internal/twig"
)

// Op is one client operation.  The server receives only what an Op
// describes: a query body, completion/explain parameters, or an ingest body
// generated from IngestSeed.
type Op struct {
	Class   string `json:"class"` // query | complete | ingest
	Kind    string `json:"kind"`  // query | tag | value | explain | ingest
	Dataset string `json:"dataset"`
	Path    string `json:"path,omitempty"`
	Axis    string `json:"axis,omitempty"`
	Prefix  string `json:"prefix,omitempty"`
	Tag     string `json:"tag,omitempty"`
	K       int    `json:"k,omitempty"`
	Query   string `json:"query,omitempty"`
	Offset  int    `json:"offset,omitempty"`
	Rewrite bool   `json:"rewrite,omitempty"`
	// Check marks the seeded sample compared against in-process evaluation.
	Check bool `json:"check,omitempty"`
	// Shard, Marker and IngestSeed describe an ingest slice.
	Shard      string `json:"shard,omitempty"`
	Marker     string `json:"marker,omitempty"`
	IngestSeed int64  `json:"ingestSeed,omitempty"`
}

// checkEvery is the share of operations (1 in checkEvery) whose responses
// are compared with an in-process evaluation of the same topology.
const checkEvery = 8

// guidePath is one DataGuide label path as the generators see it.
type guidePath struct {
	steps    []string // tag names from the document root to this node
	parent   int      // index of the parent path, -1 at the document root
	count    int
	children []int // indices into genData.paths, most frequent first
	values   []dataguide.ValueCount
}

// genData is the generators' view of one served dataset: its DataGuide
// paths (children in deterministic order) and value vocabulary.
type genData struct {
	kind, name string
	paths      []guidePath
}

func isName(s string) bool {
	if s == "" || !(s[0] == '_' || s[0] >= 'A' && s[0] <= 'Z' || s[0] >= 'a' && s[0] <= 'z') {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c == '-' || c == '.' || c >= '0' && c <= '9' || c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z') {
			return false
		}
	}
	return true
}

// newGenData flattens a guide into label paths, visiting children in tag
// name order so the same document always yields the same path list.
func newGenData(kind, name string, g *dataguide.Guide) *genData {
	tags := g.Document().Tags()
	gd := &genData{kind: kind, name: name}
	var walk func(n *dataguide.Node, parent int, prefix []string) int
	walk = func(n *dataguide.Node, parent int, prefix []string) int {
		steps := append(append([]string(nil), prefix...), tags.Name(n.Tag))
		idx := len(gd.paths)
		gd.paths = append(gd.paths, guidePath{steps: steps, parent: parent, count: n.Count, values: n.Values()})
		kids := make([]*dataguide.Node, 0, len(n.Children))
		for _, c := range n.Children {
			if isName(tags.Name(c.Tag)) {
				kids = append(kids, c)
			}
		}
		sort.Slice(kids, func(i, j int) bool { return tags.Name(kids[i].Tag) < tags.Name(kids[j].Tag) })
		var ch []int
		for _, c := range kids {
			ch = append(ch, walk(c, idx, steps))
		}
		sort.SliceStable(ch, func(i, j int) bool { return gd.paths[ch[i]].count > gd.paths[ch[j]].count })
		gd.paths[idx].children = ch
		return idx
	}
	walk(g.Root(), -1, nil)
	return gd
}

func (gp *guidePath) tag() string { return gp.steps[len(gp.steps)-1] }

// zipf draws an index in [0, n) with Zipf popularity (index 0 most popular).
func zipf(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rand.NewZipf(rng, 1.2, 1, uint64(n-1)).Uint64())
}

func prefixOf(s string, n int) string {
	if len(s) < n {
		return s
	}
	return s[:n]
}

func quote(s string) string { return `"` + strings.ReplaceAll(s, `"`, "") + `"` }

// firstToken is the first word of a value, the part a user types into a
// contains predicate.
func firstToken(v string) string {
	f := strings.Fields(v)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// ------------------------------------------------------------ session mix

// sessionScript builds one GUI session following the E10/E15 pattern: root
// suggestion, three grows (tag completion plus explain each), value
// completion keystroke by keystroke, a rewrite:true query and its page 2.
func sessionScript(rng *rand.Rand, gd *genData) []Op {
	// Root candidates: element paths with at least two child paths.
	var roots []int
	for i := range gd.paths {
		if len(gd.paths[i].steps) >= 2 && len(gd.paths[i].children) >= 2 {
			roots = append(roots, i)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return gd.paths[roots[i]].count > gd.paths[roots[j]].count })
	if len(roots) == 0 {
		return nil
	}
	root := &gd.paths[roots[zipf(rng, len(roots))]]
	T := root.tag()
	ops := []Op{{Class: "complete", Kind: "tag", Dataset: gd.name, Axis: "descendant", Prefix: prefixOf(T, 1+rng.Intn(2)), K: 8}}
	base := "//" + T
	var grown []*guidePath
	perm := append([]int(nil), root.children...)
	for len(grown) < 3 && len(perm) > 0 {
		j := zipf(rng, len(perm))
		c := &gd.paths[perm[j]]
		perm = append(perm[:j], perm[j+1:]...)
		grown = append(grown, c)
		ops = append(ops,
			Op{Class: "complete", Kind: "tag", Dataset: gd.name, Path: base, Axis: "child", Prefix: prefixOf(c.tag(), 1+rng.Intn(2)), K: 8},
			Op{Class: "complete", Kind: "explain", Dataset: gd.name, Path: base, Axis: "child", Tag: c.tag(), K: 3})
	}
	// Value completion on the first grown node that carries values.
	var valued *guidePath
	for _, c := range grown {
		if len(c.values) > 0 {
			valued = c
			break
		}
	}
	pred := ""
	if valued != nil {
		v := valued.values[zipf(rng, len(valued.values))].Value
		for n := 1; n <= len(v) && n <= 4; n++ {
			ops = append(ops, Op{Class: "complete", Kind: "value", Dataset: gd.name, Path: base + "/" + valued.tag(), Prefix: v[:n], K: 8})
		}
		if tok := firstToken(v); tok != "" {
			pred = "[" + valued.tag() + " contains " + quote(tok) + "]"
		}
	}
	// The query: the value predicate and the other grown nodes as branches,
	// the last grown node (unless it carries the predicate) as output.
	q, out := base+pred, ""
	for i, c := range grown {
		switch {
		case c == valued:
		case i == len(grown)-1:
			out = "/" + c.tag()
		default:
			q += "[" + c.tag() + "]"
		}
	}
	q += out
	ops = append(ops,
		Op{Class: "query", Kind: "query", Dataset: gd.name, Query: q, K: 10, Rewrite: true},
		Op{Class: "query", Kind: "query", Dataset: gd.name, Query: q, K: 10, Offset: 10, Rewrite: true})
	return ops
}

// sessionOps interleaves scripted sessions the way independent users
// overlap in time: eight sessions are live at once, each next operation
// comes from a random live session, and a finished session is replaced by a
// new one drawn Zipf from a fixed pool — the pool bounds the working set so
// it fits the hot-path caches.
func sessionOps(rng, srng *rand.Rand, gds []*genData, n int) []Op {
	const poolSize, live = 64, 8
	// Script i serves dataset i mod the dataset count, so the most popular
	// scripts cover every dataset whatever the seed.
	pool := make([][]Op, 0, poolSize)
	for i := 0; len(pool) < poolSize; i++ {
		if s := sessionScript(rng, gds[len(pool)%len(gds)]); len(s) > 0 {
			pool = append(pool, s)
		}
	}
	active := make([][]Op, live)
	out := make([]Op, 0, n)
	for len(out) < n {
		i := srng.Intn(live)
		if len(active[i]) == 0 {
			active[i] = pool[zipf(srng, poolSize)]
		}
		out = append(out, active[i][0])
		active[i] = active[i][1:]
	}
	return out
}

// ---------------------------------------------------------- ad-hoc twigs

// misspell changes one letter of s (substitution, deletion or transposition).
func misspell(rng *rand.Rand, s string) string {
	if len(s) < 2 {
		return s + "q"
	}
	b := []byte(s)
	i := rng.Intn(len(b) - 1)
	switch rng.Intn(3) {
	case 0:
		b[i] = byte('a' + rng.Intn(26))
	case 1:
		b = append(b[:i], b[i+1:]...)
	default:
		b[i], b[i+1] = b[i+1], b[i]
	}
	return string(b)
}

func absentWord(rng *rand.Rand) string {
	const letters = "bcdfghjklmnpqrstvwxz"
	b := []byte("zq")
	for i := 0; i < 4+rng.Intn(4); i++ {
		b = append(b, letters[rng.Intn(len(letters))])
	}
	return string(b)
}

// valuePred renders a value predicate on child c (on the step itself when
// self is set): a real value (60%), an absent one (20%) or a misspelled one
// (20%), with "=" or "contains".
func valuePred(rng *rand.Rand, c *guidePath, self bool) string {
	target := c.tag()
	if self {
		target = "."
	}
	v := absentWord(rng)
	switch r := rng.Intn(10); {
	case r < 6:
		v = c.values[rng.Intn(len(c.values))].Value
	case r < 8:
		v = misspell(rng, c.values[rng.Intn(len(c.values))].Value)
	}
	if rng.Intn(2) == 0 {
		if tok := firstToken(v); tok != "" {
			return "[" + target + " contains " + quote(tok) + "]"
		}
	}
	return "[" + target + " = " + quote(v) + "]"
}

// twigTargets lists the label paths ad-hoc twigs end at: element paths two
// to six steps deep.
func twigTargets(gd *genData) []int {
	var targets []int
	for i := range gd.paths {
		if n := len(gd.paths[i].steps); n >= 2 && n <= 6 {
			targets = append(targets, i)
		}
	}
	return targets
}

// randomTwig draws one ad-hoc twig query whose output node is the label
// path ti.  With values set it carries at least one value predicate (and so
// may need rewriting), without none.  It returns "" when the drawn shape
// cannot meet that or does not parse; callers draw again.
func randomTwig(rng *rand.Rand, gd *genData, ti int, values bool) string {
	target := &gd.paths[ti]
	chain := []*guidePath{target}
	for cur := target; cur.parent >= 0; cur = &gd.paths[cur.parent] {
		chain = append([]*guidePath{&gd.paths[cur.parent]}, chain...)
	}
	// The main path: the last one to four steps of the label path, with /
	// or // between them, and one to three branches in all (the last step
	// takes what the others left).  A leaf output takes its parent along,
	// so that structural branches have somewhere to go.
	steps := 1 + rng.Intn(min(4, len(chain)-1))
	if len(target.children) == 0 && !values {
		steps = max(steps, 2)
	}
	chain = chain[len(chain)-steps:]
	var b strings.Builder
	hasValue := false
	branches := 1 + rng.Intn(3)
	for i, step := range chain {
		if i == 0 || rng.Intn(4) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(step.tag())
		var next string
		if i+1 < len(chain) {
			next = chain[i+1].tag()
		}
		var side, valued []*guidePath
		for _, ci := range step.children {
			if c := &gd.paths[ci]; c.tag() != next {
				side = append(side, c)
				if len(c.values) > 0 {
					valued = append(valued, c)
				}
			}
		}
		n := rng.Intn(3)
		if i == len(chain)-1 {
			n = branches
		}
		for ; n > 0 && branches > 0 && len(side) > 0; n-- {
			branches--
			if values && len(valued) > 0 && (!hasValue || rng.Intn(2) == 0) {
				b.WriteString(valuePred(rng, valued[rng.Intn(len(valued))], false))
				hasValue = true
			} else {
				b.WriteString("[" + side[rng.Intn(len(side))].tag() + "]")
			}
		}
		if len(side) >= 2 && branches > 0 && rng.Intn(16) == 0 {
			branches--
			b.WriteString("[" + side[0].tag() + " << " + side[1].tag() + "]")
		}
		// A value query whose branches found no values puts one on its
		// output step.
		if values && !hasValue && i == len(chain)-1 && len(step.values) > 0 {
			b.WriteString(valuePred(rng, step, true))
			hasValue = true
		}
	}
	q := b.String()
	if hasValue != values {
		return ""
	}
	if _, err := twig.Parse(q); err != nil {
		return ""
	}
	return q
}

// randomCompletion draws a tag or value completion at a random guide
// position (the completions an ad-hoc query author types).
func randomCompletion(rng *rand.Rand, gd *genData) Op {
	for {
		p := &gd.paths[rng.Intn(len(gd.paths))]
		if len(p.steps) < 2 {
			continue
		}
		path := "//" + strings.Join(p.steps[1:], "/")
		if len(p.values) > 0 && rng.Intn(3) > 0 {
			v := p.values[rng.Intn(len(p.values))].Value
			return Op{Class: "complete", Kind: "value", Dataset: gd.name, Path: path, Prefix: prefixOf(v, 2+rng.Intn(3)), K: 8}
		}
		if len(p.children) == 0 {
			continue
		}
		c := &gd.paths[p.children[rng.Intn(len(p.children))]]
		return Op{Class: "complete", Kind: "tag", Dataset: gd.name, Path: path, Axis: "child", Prefix: prefixOf(c.tag(), 1), K: 8}
	}
}

// searchOps draws ad-hoc traffic.  Its composition is fixed so that runs
// with different seeds stay comparable: every completeEvery-th operation is
// a completion, queries take the datasets in turn, every third query has
// value predicates and rewrites, every fourth (structural) one asks for
// k=100 and every fifth for the second page; only the twigs themselves are
// random.
func searchOps(rng *rand.Rand, gds []*genData, n, completeEvery int) []Op {
	// Output paths are drawn without replacement, dataset by dataset, so a
	// run covers each dataset's paths evenly whatever the seed.
	decks := make([][]int, len(gds))
	draw := func(d int) int {
		if len(decks[d]) == 0 {
			decks[d] = twigTargets(gds[d])
			rng.Shuffle(len(decks[d]), func(i, j int) { decks[d][i], decks[d][j] = decks[d][j], decks[d][i] })
		}
		t := decks[d][0]
		decks[d] = decks[d][1:]
		return t
	}
	out := make([]Op, 0, n)
	queries := 0
	for i := 0; len(out) < n; i++ {
		if i%completeEvery == completeEvery-1 {
			out = append(out, randomCompletion(rng, gds[i%len(gds)]))
			continue
		}
		// Every third query carries value predicates and asks for rewriting
		// (absent and misspelled values make it relax); the rest are
		// structural.  A fixed share keeps the median inside the cheaper of
		// the two cost modes: near half, it swung between them from seed to
		// seed.
		d := queries % len(gds)
		values := queries%3 == 0
		q := randomTwig(rng, gds[d], draw(d), values)
		if q == "" {
			continue
		}
		op := Op{Class: "query", Kind: "query", Dataset: gds[d].name, Query: q, K: 10, Rewrite: values}
		// k=100 goes to structural queries: a hundred answers through
		// rewriting made rare queries cost 100-250 ms.
		if queries%4 == 1 && !values {
			op.K = 100
		}
		if queries%5 == 2 {
			op.Offset = op.K
		}
		queries++
		out = append(out, op)
	}
	return out
}

// ---------------------------------------------------------------- ingest

// ingestOp describes the i-th ingest of a run: a fresh shard name and a
// marker author no generated record carries.
func ingestOp(seed int64, i int, dataset string) Op {
	return Op{
		Class: "ingest", Kind: "ingest", Dataset: dataset,
		Shard:      fmt.Sprintf("ing%d", i),
		Marker:     fmt.Sprintf("mkq%dn%d", seed, i),
		IngestSeed: seed*1000 + int64(i),
	}
}

// ingestBody renders the slice an ingest op uploads: 150 seeded dblp-style
// records and one article by the op's marker author.
func ingestBody(op Op) []byte {
	rng := rand.New(rand.NewSource(op.IngestSeed))
	words := []string{"xml", "twig", "query", "holistic", "join", "index", "search", "graph", "stream", "pattern"}
	names := []string{"wei lu", "jiaheng lu", "tok ling", "anna chen", "marco rossi", "yuki tanaka"}
	var b bytes.Buffer
	b.WriteString("<dblp>\n")
	for r := 0; r < 150; r++ {
		kind := "inproceedings"
		if rng.Intn(5) < 2 {
			kind = "article"
		}
		fmt.Fprintf(&b, "<%s key=\"%s/%d\"><author>%s</author><title>%s %s %s</title><year>%d</year></%s>\n",
			kind, op.Shard, r, names[rng.Intn(len(names))],
			words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))],
			1995+rng.Intn(18), kind)
	}
	fmt.Fprintf(&b, "<article key=\"%s/marker\"><author>%s</author><title>marker slice</title><year>2024</year></article>\n", op.Shard, op.Marker)
	b.WriteString("</dblp>\n")
	return b.Bytes()
}

// markerQuery is the query that answers once an ingest's slice is visible.
func markerQuery(op Op) string { return `//article[author = "` + op.Marker + `"]` }

// ------------------------------------------------------------- the stream

// The streams of one run: the measured open loop, the closed loop, and the
// warm-up before both.  Session streams share the seed's script pool (the
// working set) and differ in how sessions interleave; ad-hoc streams share
// nothing.
const (
	streamOpen int64 = iota
	streamClosed
	streamWarm
)

// genOps builds operation stream `stream` of length n from the seed.  The
// same seed and stream always give the same operations.
func genOps(w *Workload, gds []*genData, seed, stream int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	srng := rand.New(rand.NewSource(seed*7919 + stream))
	var ops []Op
	switch w.Name {
	case "session":
		ops = sessionOps(rng, srng, gds, n)
	case "search":
		ops = searchOps(srng, gds, n, 4)
	case "router":
		ops = searchOps(srng, gds, n, 3)
	default:
		panic("no generator for workload " + w.Name)
	}
	crng := rand.New(rand.NewSource(seed*7919 + stream + 0x5eed))
	for i := range ops {
		ops[i].Check = crng.Intn(checkEvery) == 0
	}
	return ops
}
