package embed

import "slices"

// LeafPaths is a hierarchy's leaf-path table: for every vid, the
// breadth-first tree of its leaf part rooted at that vid, so a leaf-level
// routing step reads its shortest path instead of searching for it.
//
// Trees are stored flat and per part. Vid v has the dense index local[v]
// within its leaf part; the tree rooted at src occupies
// parent[treeOff[src] : treeOff[src]+s] for a part of s vids, and
// parent[treeOff[src]+local[dst]] is dst's BFS parent toward src (src
// itself at the root, -1 when dst is unreachable from src inside the
// part). The table holds Σ_p s_p² int32 entries.
//
// The trees follow one fixed rule: a BFS over Graph.Neighbors order,
// restricted to the part, where the first discoverer of a vid becomes its
// parent. A parallel edge cannot change which vid is found first, so the
// part-local adjacency the BFS runs over keeps only each neighbor's first
// occurrence, in place.
type LeafPaths struct {
	partOf  []int32
	local   []int32
	treeOff []int
	parent  []int32
}

// LeafPaths returns the leaf-path table of h's deepest overlay. It is
// built on the first call and shared by every later one; concurrent
// callers wait for the one build.
func (h *Hierarchy) LeafPaths() *LeafPaths {
	h.leafOnce.Do(func() { h.leafPaths = newLeafPaths(h.Overlay(h.Levels)) })
	return h.leafPaths
}

func newLeafPaths(o *Overlay) *LeafPaths {
	n := o.Graph.N()
	t := &LeafPaths{
		partOf:  o.PartOf,
		local:   make([]int32, n),
		treeOff: make([]int, n),
	}
	// Each part's members in vid order: start[p] .. start[p+1] of members.
	start := make([]int32, o.NumParts+1)
	for _, p := range o.PartOf {
		start[p+1]++
	}
	for p := 0; p < o.NumParts; p++ {
		start[p+1] += start[p]
	}
	members := make([]int32, n)
	fill := slices.Clone(start[:o.NumParts])
	for v, p := range o.PartOf {
		members[fill[p]] = int32(v)
		t.local[v] = fill[p] - start[p]
		fill[p]++
	}
	total := 0
	for p := 0; p < o.NumParts; p++ {
		s := int(start[p+1] - start[p])
		for i, v := range members[start[p]:start[p+1]] {
			t.treeOff[v] = total + i*s
		}
		total += s * s
	}
	t.parent = make([]int32, total)

	// Part-local adjacency in local indices, rebuilt per part.
	var adjOff, adj, queue []int32
	var seenBy []int32
	for p := 0; p < o.NumParts; p++ {
		mem := members[start[p]:start[p+1]]
		s := len(mem)
		if s == 0 {
			continue
		}
		seenBy = slices.Grow(seenBy[:0], s)[:s]
		for i := range seenBy {
			seenBy[i] = -1
		}
		adjOff, adj = adjOff[:0], adj[:0]
		for i, v := range mem {
			adjOff = append(adjOff, int32(len(adj)))
			for _, he := range o.Graph.Neighbors(int(v)) {
				if o.PartOf[he.To] != int32(p) {
					continue
				}
				j := t.local[he.To]
				if seenBy[j] == int32(i) {
					continue
				}
				seenBy[j] = int32(i)
				adj = append(adj, j)
			}
		}
		adjOff = append(adjOff, int32(len(adj)))

		for i, src := range mem {
			tree := t.parent[t.treeOff[src] : t.treeOff[src]+s]
			for j := range tree {
				tree[j] = -1
			}
			tree[i] = src
			queue = append(queue[:0], int32(i))
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				for _, j := range adj[adjOff[v]:adjOff[v+1]] {
					if tree[j] >= 0 {
						continue
					}
					tree[j] = mem[v]
					queue = append(queue, j)
				}
			}
		}
	}
	return t
}

// AppendPath appends the BFS path from src to dst inside their leaf part
// to buf, src first, and returns the extended slice. It reports false,
// leaving buf as it was, when dst lies in another part or cannot be
// reached from src within the part.
func (t *LeafPaths) AppendPath(buf []int32, src, dst int32) ([]int32, bool) {
	if t.partOf[src] != t.partOf[dst] {
		return buf, false
	}
	tree := t.parent[t.treeOff[src]:]
	if tree[t.local[dst]] < 0 {
		return buf, false
	}
	at := len(buf)
	for v := dst; v != src; v = tree[t.local[v]] {
		buf = append(buf, v)
	}
	buf = append(buf, src)
	slices.Reverse(buf[at:])
	return buf, true
}
