// DAG-compressed index substrate (Böttcher et al., "Efficient XML Keyword
// Search based on DAG-Compression").  Bibliographic-style XML is dominated
// by structurally identical subtrees; instead of materializing one stream
// entry, posting entry and exact-value entry per node *instance*, the
// compressed substrate stores each distinct subtree shape once — tag, kind,
// value class and ordered child shapes, hashed bottom-up — plus a sorted
// occurrence list of the subtree roots that instantiate it.
//
// Because NodeIDs are preorder, a subtree is a contiguous ID range and two
// occurrences of one shape are identical node-for-node at identical offsets:
// the node at offset k under occurrence root r is the copy of the node at
// offset k under the canonical root.  Every per-node access structure then
// factors into a small "program": a residue list (nodes outside any shared
// occurrence) plus (group, offset) parts expanded against occurrence lists.
// Streams, postings and exact-value lists materialize lazily from these
// programs; counts (TagCount, DF) are pure arithmetic.  The same offset
// identity powers the join fast path (internal/join): evaluate each distinct
// shape once against the canonical occurrence, then translate matches to the
// remaining occurrences.
package index

import (
	"encoding/binary"
	"sort"

	"lotusx/internal/doc"
)

// compressMinRatio is the estimated raw/compressed substrate byte ratio
// below which BuildWith falls back to the raw representation: a document
// without enough repeated structure pays materialization cost at query time
// without a resident-memory win, so it keeps the raw arrays.
const compressMinRatio = 2.0

// Approximate per-entry overheads used by both the resident-byte accounting
// and the raw-size estimate, so the two sides are compared with the same
// yardstick: a Go map entry (bucket share + key header) and a slice header.
const (
	mapEntryBytes    = 48
	sliceHeaderBytes = 24
	nodeIDBytes      = 4
	partBytes        = 8
)

// part references one node of a shared shape: the node at Offset inside
// every occurrence subtree of group Group.
type part struct {
	group  int32
	offset int32
}

// prog is the compressed form of one document-order node list: explicit
// residue nodes plus shape parts expanded against occurrence roots.
type prog struct {
	residue []doc.NodeID
	parts   []part
}

// occGroup is one shared shape chosen as an occurrence root: Size nodes per
// subtree, instantiated at every root in Roots (sorted ascending; Roots[0]
// is the canonical occurrence all programs and the join fast path refer to).
type occGroup struct {
	size  int32
	roots []doc.NodeID
}

// Compressed is the DAG-compressed substrate of an Index.  It is immutable
// after build and safe for concurrent readers; materializing accessors
// return fresh slices.
type Compressed struct {
	d      *doc.Document
	groups []occGroup

	// coverRoots/coverGroups flatten every occurrence instance sorted by
	// root, for the "which occurrence contains node n" binary search.
	coverRoots  []doc.NodeID
	coverGroups []int32

	// tagProgs[tag] is the compressed stream of that tag.
	tagProgs []prog
	// posts[token] / exacts[foldedValue] are the compressed postings.
	posts  map[string]*prog
	exacts map[string]*prog

	// shapes counts distinct subtree shapes in the whole document;
	// instances counts occurrence roots across all groups; sharedNodes
	// counts nodes covered by shared occurrences.
	shapes      int
	instances   int
	sharedNodes int

	// rawEstimate is the estimated byte size of the raw substrate this
	// compressed form replaces (streams + postings + exact lists).
	rawEstimate int64
}

// BuildOptions tunes BuildWith.
type BuildOptions struct {
	// Compress opts into the DAG-compressed substrate; when the document's
	// dedup ratio is poor the build falls back to the raw representation.
	Compress bool
	// ForceCompress keeps the compressed substrate even when the heuristic
	// would fall back — tests and experiments only.
	ForceCompress bool
}

// BuildWith constructs the index for d under the given options.
func BuildWith(d *doc.Document, opts BuildOptions) *Index {
	if opts.Compress || opts.ForceCompress {
		if ix := buildCompressed(d, opts.ForceCompress); ix != nil {
			return ix
		}
	}
	return Build(d)
}

// BuildCompressed builds the index over the DAG-compressed substrate when
// the document's dedup ratio clears compressMinRatio, else falls back to
// the raw representation (Compressed returns nil in that case).
func BuildCompressed(d *doc.Document) *Index {
	return BuildWith(d, BuildOptions{Compress: true})
}

// Compressed returns the index's DAG substrate, or nil when the index is
// raw (Build, or a compressed build that fell back).
func (ix *Index) Compressed() *Compressed { return ix.comp }

// buildCompressed runs the structure-hash pass and assembles a compressed
// index, or returns nil when compression would not pay and force is false.
func buildCompressed(d *doc.Document, force bool) *Index {
	n := d.Len()

	// Subtree sizes, bottom-up.  Children have larger preorder IDs than
	// their parent, so a reverse scan sees every child before its parent.
	size := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		sz := int32(1)
		for c := d.FirstChild(doc.NodeID(i)); c != doc.None; c = d.NextSibling(c) {
			sz += size[c]
		}
		size[i] = sz
	}

	// Structure-hash pass: intern each node's shape key — tag, kind, value
	// class, ordered child shapes.  Keys are interned by content (classic
	// hash-consing), so two nodes share a shape ID iff their subtrees are
	// byte-identical in every query-visible property; there is no hash to
	// collide.  All of this state is transient build scaffolding.
	shapeOf := make([]int32, n)
	shapeCount := make([]int32, 0, 1024)
	shapeKeys := make(map[string]int32, 1024)
	valueIDs := make(map[string]int32, 1024)
	var kb []byte
	for i := n - 1; i >= 0; i-- {
		id := doc.NodeID(i)
		kb = kb[:0]
		kb = binary.AppendUvarint(kb, uint64(d.Tag(id)))
		kb = append(kb, byte(d.Kind(id)))
		v := d.Value(id)
		vid, ok := valueIDs[v]
		if !ok {
			vid = int32(len(valueIDs))
			valueIDs[v] = vid
		}
		kb = binary.AppendUvarint(kb, uint64(vid))
		for c := d.FirstChild(id); c != doc.None; c = d.NextSibling(c) {
			kb = binary.AppendUvarint(kb, uint64(shapeOf[c]))
		}
		s, ok := shapeKeys[string(kb)]
		if !ok {
			s = int32(len(shapeCount))
			shapeKeys[string(kb)] = s
			shapeCount = append(shapeCount, 0)
		}
		shapeOf[i] = s
		shapeCount[s]++
	}

	// Cover scan: one preorder sweep picks the topmost shared subtrees as
	// occurrence roots and skips over their (contiguous) node ranges;
	// everything else is residue.  Single-node shapes stay residue — their
	// occurrence list would be exactly as large as the raw stream entries
	// they replace.  A group can end up with a single root (its other
	// instances nested inside larger shared subtrees); that is harmless,
	// just not profitable, and the byte-ratio fallback judges the total.
	c := &Compressed{
		d:        d,
		tagProgs: make([]prog, d.Tags().Len()),
		posts:    make(map[string]*prog),
		exacts:   make(map[string]*prog),
		shapes:   len(shapeCount),
	}
	groupBy := make(map[int32]int32)
	var residue []doc.NodeID
	for i := 0; i < n; {
		s := shapeOf[i]
		if shapeCount[s] >= 2 && size[i] >= 2 {
			g, ok := groupBy[s]
			if !ok {
				g = int32(len(c.groups))
				groupBy[s] = g
				c.groups = append(c.groups, occGroup{size: size[i]})
			}
			c.groups[g].roots = append(c.groups[g].roots, doc.NodeID(i))
			c.sharedNodes += int(size[i])
			i += int(size[i])
			continue
		}
		residue = append(residue, doc.NodeID(i))
		i++
	}
	for _, g := range c.groups {
		c.instances += len(g.roots)
	}

	// Value-derived structures.  Canonical subtrees are tokenized once per
	// shape; every per-node fact they yield stands for occurrence-count
	// instances.
	valued := 0
	var rawPostEntries, rawExactEntries int64

	post := func(m map[string]*prog, key string) *prog {
		p := m[key]
		if p == nil {
			p = &prog{}
			m[key] = p
		}
		return p
	}
	record := func(v string, instances int64, addPost func(p *prog)) {
		if v == "" {
			return
		}
		valued += int(instances)
		addPost(post(c.exacts, foldValue(v)))
		rawExactEntries += instances
		seen := make(map[string]struct{})
		for _, tok := range Tokenize(v) {
			if _, dup := seen[tok]; dup {
				continue
			}
			seen[tok] = struct{}{}
			addPost(post(c.posts, tok))
			rawPostEntries += instances
		}
	}

	for gi := range c.groups {
		g := &c.groups[gi]
		r0 := g.roots[0]
		inst := int64(len(g.roots))
		for k := int32(0); k < g.size; k++ {
			id := r0 + doc.NodeID(k)
			tag := d.Tag(id)
			pt := part{group: int32(gi), offset: k}
			c.tagProgs[tag].parts = append(c.tagProgs[tag].parts, pt)
			v := d.Value(id)
			record(v, inst, func(p *prog) { p.parts = append(p.parts, pt) })
		}
	}
	for _, id := range residue {
		tag := d.Tag(id)
		c.tagProgs[tag].residue = append(c.tagProgs[tag].residue, id)
		v := d.Value(id)
		record(v, 1, func(p *prog) { p.residue = append(p.residue, id) })
	}

	// Cover table, sorted by root for the occurrence binary search.
	c.coverRoots = make([]doc.NodeID, 0, c.instances)
	c.coverGroups = make([]int32, 0, c.instances)
	type coverEnt struct {
		root  doc.NodeID
		group int32
	}
	ents := make([]coverEnt, 0, c.instances)
	for gi := range c.groups {
		for _, r := range c.groups[gi].roots {
			ents = append(ents, coverEnt{root: r, group: int32(gi)})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].root < ents[j].root })
	for _, e := range ents {
		c.coverRoots = append(c.coverRoots, e.root)
		c.coverGroups = append(c.coverGroups, e.group)
	}

	// The fallback heuristic: estimate what the raw substrate would cost
	// (one stream entry per node, one posting/exact entry per instance,
	// the same key set) and compare with the compressed structures.
	c.rawEstimate = int64(n)*nodeIDBytes + int64(d.Tags().Len())*sliceHeaderBytes +
		rawPostEntries*nodeIDBytes + rawExactEntries*nodeIDBytes
	for tok := range c.posts {
		c.rawEstimate += int64(len(tok)) + mapEntryBytes
	}
	for v := range c.exacts {
		c.rawEstimate += int64(len(v)) + mapEntryBytes
	}
	if !force && float64(c.rawEstimate) < compressMinRatio*float64(c.residentBytes()) {
		return nil
	}

	// Assemble the Index around the substrate; the completion dictionaries
	// and counters must come out identical to a raw build (completion
	// results and ranking statistics may not depend on the substrate).
	ix := &Index{document: d, comp: c, valued: valued}
	ix.buildDicts()
	return ix
}

// eachExact calls add for every instance class of every folded value — a
// residue node standing for itself, or a shared node's canonical copy
// standing for one instance per occurrence — in ascending NodeID order per
// value.  Occurrence roots are sorted, so a canonical copy is its class's
// earliest instance, and the order makes buildDicts keep each value's
// first document-order node as datum, exactly as a raw build does.
func (c *Compressed) eachExact(add func(v string, n doc.NodeID, weight int64)) {
	type inst struct {
		n      doc.NodeID
		weight int64
	}
	var buf []inst
	for v, p := range c.exacts {
		buf = buf[:0]
		for _, n := range p.residue {
			buf = append(buf, inst{n, 1})
		}
		for _, pt := range p.parts {
			g := &c.groups[pt.group]
			buf = append(buf, inst{g.roots[0] + doc.NodeID(pt.offset), int64(len(g.roots))})
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i].n < buf[j].n })
		for _, in := range buf {
			add(v, in.n, in.weight)
		}
	}
}

// progCount is the number of nodes a program expands to.
func (c *Compressed) progCount(p *prog) int {
	n := len(p.residue)
	for _, pt := range p.parts {
		n += len(c.groups[pt.group].roots)
	}
	return n
}

// materialize expands a program into a fresh document-order node list.
func (c *Compressed) materialize(p *prog) []doc.NodeID {
	if p == nil {
		return nil
	}
	out := make([]doc.NodeID, 0, c.progCount(p))
	out = append(out, p.residue...)
	for _, pt := range p.parts {
		off := doc.NodeID(pt.offset)
		for _, r := range c.groups[pt.group].roots {
			out = append(out, r+off)
		}
	}
	sortNodeIDs(out)
	return out
}

// canonical expands only the canonical occurrence of each part — the node
// set the join fast path evaluates once per shape.  Residue is excluded.
func (c *Compressed) canonical(p *prog) []doc.NodeID {
	if p == nil || len(p.parts) == 0 {
		return nil
	}
	out := make([]doc.NodeID, 0, len(p.parts))
	for _, pt := range p.parts {
		out = append(out, c.groups[pt.group].roots[0]+doc.NodeID(pt.offset))
	}
	sortNodeIDs(out)
	return out
}

func (c *Compressed) tagProg(tag doc.TagID) *prog {
	if tag < 0 || int(tag) >= len(c.tagProgs) {
		return nil
	}
	return &c.tagProgs[tag]
}

// tagCount returns the number of nodes with tag, without materializing.
func (c *Compressed) tagCount(tag doc.TagID) int {
	p := c.tagProg(tag)
	if p == nil {
		return 0
	}
	return c.progCount(p)
}

// tagStream materializes the full document-order stream of tag.
func (c *Compressed) tagStream(tag doc.TagID) []doc.NodeID {
	return c.materialize(c.tagProg(tag))
}

// Canonical returns the tag's nodes inside canonical occurrence subtrees,
// in document order — the pass-1 stream of the join fast path.
func (c *Compressed) Canonical(tag doc.TagID) []doc.NodeID {
	return c.canonical(c.tagProg(tag))
}

// Residue returns the tag's nodes outside every shared occurrence, in
// document order.  The slice is shared; callers must not modify it.
func (c *Compressed) Residue(tag doc.TagID) []doc.NodeID {
	p := c.tagProg(tag)
	if p == nil {
		return nil
	}
	return p.residue
}

// elementTags calls fn for every element (non-attribute) tag.
func (c *Compressed) elementTags(fn func(tag doc.TagID)) {
	tags := c.d.Tags()
	for id := doc.TagID(0); int(id) < tags.Len(); id++ {
		if name := tags.Name(id); len(name) > 0 && name[0] == '@' {
			continue
		}
		fn(id)
	}
}

// wildcardCount returns the number of element nodes, without materializing.
func (c *Compressed) wildcardCount() int {
	n := 0
	c.elementTags(func(tag doc.TagID) { n += c.tagCount(tag) })
	return n
}

// wildcardStream materializes all element nodes in document order.
func (c *Compressed) wildcardStream() []doc.NodeID {
	out := make([]doc.NodeID, 0, c.wildcardCount())
	c.elementTags(func(tag doc.TagID) {
		p := c.tagProg(tag)
		out = append(out, p.residue...)
		for _, pt := range p.parts {
			off := doc.NodeID(pt.offset)
			for _, r := range c.groups[pt.group].roots {
				out = append(out, r+off)
			}
		}
	})
	sortNodeIDs(out)
	return out
}

// CanonicalWildcard returns the element nodes inside canonical occurrence
// subtrees, in document order.
func (c *Compressed) CanonicalWildcard() []doc.NodeID {
	var out []doc.NodeID
	c.elementTags(func(tag doc.TagID) {
		for _, pt := range c.tagProg(tag).parts {
			out = append(out, c.groups[pt.group].roots[0]+doc.NodeID(pt.offset))
		}
	})
	sortNodeIDs(out)
	return out
}

// ResidueWildcard returns the element nodes outside every shared
// occurrence, in document order.
func (c *Compressed) ResidueWildcard() []doc.NodeID {
	var out []doc.NodeID
	c.elementTags(func(tag doc.TagID) { out = append(out, c.tagProg(tag).residue...) })
	sortNodeIDs(out)
	return out
}

// tokenPostings materializes the postings of a canonical (folded) token.
func (c *Compressed) tokenPostings(tok string) []doc.NodeID {
	return c.materialize(c.posts[tok])
}

// tokenCount returns the document frequency of a canonical token.
func (c *Compressed) tokenCount(tok string) int {
	p := c.posts[tok]
	if p == nil {
		return 0
	}
	return c.progCount(p)
}

// exactMatches materializes the nodes whose folded value equals v.
func (c *Compressed) exactMatches(v string) []doc.NodeID {
	return c.materialize(c.exacts[v])
}

// Occurrence locates the shared occurrence containing node n.  It returns
// the canonical root of n's group and the group's full occurrence-root
// list (sorted; shared, do not modify); ok is false when n is residue.
func (c *Compressed) Occurrence(n doc.NodeID) (canonical doc.NodeID, roots []doc.NodeID, ok bool) {
	i := sort.Search(len(c.coverRoots), func(k int) bool { return c.coverRoots[k] > n })
	if i == 0 {
		return 0, nil, false
	}
	g := &c.groups[c.coverGroups[i-1]]
	root := c.coverRoots[i-1]
	if n >= root+doc.NodeID(g.size) {
		return 0, nil, false
	}
	return g.roots[0], g.roots, true
}

// residentBytes measures the substrate's resident structures.
func (c *Compressed) residentBytes() int64 {
	var b int64
	for i := range c.groups {
		b += sliceHeaderBytes + int64(len(c.groups[i].roots))*nodeIDBytes + 8
	}
	b += int64(len(c.coverRoots))*nodeIDBytes + int64(len(c.coverGroups))*4
	progBytes := func(p *prog) int64 {
		return int64(len(p.residue))*nodeIDBytes + int64(len(p.parts))*partBytes + 2*sliceHeaderBytes
	}
	for i := range c.tagProgs {
		b += progBytes(&c.tagProgs[i])
	}
	for tok, p := range c.posts {
		b += int64(len(tok)) + mapEntryBytes + progBytes(p)
	}
	for v, p := range c.exacts {
		b += int64(len(v)) + mapEntryBytes + progBytes(p)
	}
	return b
}

// CompressionStats summarizes an index's substrate: which representation is
// resident, how much it holds, and — for a compressed index — the shape
// economy (distinct shapes vs occurrence instances) plus the estimated size
// of the raw substrate it replaced.
type CompressionStats struct {
	// Compressed reports whether the DAG substrate is active.
	Compressed bool `json:"compressed"`
	// Nodes is the document's node count.
	Nodes int `json:"nodes"`
	// Shapes counts distinct subtree shapes (compressed builds only).
	Shapes int `json:"shapes,omitempty"`
	// Instances counts shared-subtree occurrence roots across all groups.
	Instances int `json:"instances,omitempty"`
	// SharedNodes counts nodes covered by shared occurrences.
	SharedNodes int `json:"sharedNodes,omitempty"`
	// ResidentBytes measures the live substrate (streams, postings, exact
	// lists — or their compressed programs).  Tries and the document are
	// excluded: they are identical under both representations.
	ResidentBytes int64 `json:"residentBytes"`
	// RawBytes estimates the raw substrate a compressed index replaced;
	// equal to ResidentBytes for a raw index.
	RawBytes int64 `json:"rawBytes"`
}

// Ratio is RawBytes/ResidentBytes — the substrate dedup factor.
func (s CompressionStats) Ratio() float64 {
	if s.ResidentBytes == 0 {
		return 1
	}
	return float64(s.RawBytes) / float64(s.ResidentBytes)
}

// CompressionStats reports the index's substrate statistics.
func (ix *Index) CompressionStats() CompressionStats {
	st := CompressionStats{Nodes: ix.document.Len()}
	if ix.comp != nil {
		st.Compressed = true
		st.Shapes = ix.comp.shapes
		st.Instances = ix.comp.instances
		st.SharedNodes = ix.comp.sharedNodes
		st.ResidentBytes = ix.comp.residentBytes()
		st.RawBytes = ix.comp.rawEstimate
		return st
	}
	st.ResidentBytes = ix.ResidentBytes()
	st.RawBytes = st.ResidentBytes
	return st
}

// ResidentBytes measures the index's live per-node substrate; see
// CompressionStats.ResidentBytes for what is counted.
func (ix *Index) ResidentBytes() int64 {
	if ix.comp != nil {
		return ix.comp.residentBytes()
	}
	var b int64
	for _, s := range ix.streams {
		b += sliceHeaderBytes + int64(len(s))*nodeIDBytes
	}
	for tok, nodes := range ix.postings {
		b += int64(len(tok)) + mapEntryBytes + int64(len(nodes))*nodeIDBytes
	}
	for v, nodes := range ix.exact {
		b += int64(len(v)) + mapEntryBytes + int64(len(nodes))*nodeIDBytes
	}
	b += int64(len(ix.allElems)) * nodeIDBytes
	return b
}

// sortNodeIDs sorts a node list ascending (document order).
func sortNodeIDs(s []doc.NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
