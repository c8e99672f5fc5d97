package route

// The leaf-level path finder as it stood before the leaf-path table,
// kept as the differential oracle of leafpaths_test.go: one fresh BFS
// per source over Graph.Neighbors, reusing only the last source's tree.
// The code is verbatim; only the type comment's size claim is corrected.

import (
	"fmt"

	"almostmix/internal/embed"
)

// partBFS computes shortest paths within the leaf overlay's parts, one
// fresh BFS per distinct source over a part of up to about
// β·max(LeafSize, 2β) vids; results for the most recent source are reused
// across packets.
type partBFS struct {
	o *embed.Overlay
	// parent[v] for the last BFS; version-stamped to avoid clearing.
	parent  []int32
	stamp   []int32
	version int32
	lastSrc int32
	queue   []int32
}

func newPartBFS(o *embed.Overlay) *partBFS {
	n := o.Graph.N()
	return &partBFS{
		o:       o,
		parent:  make([]int32, n),
		stamp:   make([]int32, n),
		lastSrc: -1,
	}
}

// path returns a shortest path from src to dst within their (shared) leaf
// part, as a node sequence starting at src.
func (b *partBFS) path(src, dst int32) ([]int32, error) {
	if b.o.PartOf[src] != b.o.PartOf[dst] {
		return nil, fmt.Errorf("route: leaf path request across parts (%d vs %d)",
			b.o.PartOf[src], b.o.PartOf[dst])
	}
	if src == dst {
		return []int32{src}, nil
	}
	if b.lastSrc != src {
		b.bfsFrom(src)
	}
	if b.stamp[dst] != b.version {
		return nil, fmt.Errorf("route: vid %d unreachable from %d in leaf part %d",
			dst, src, b.o.PartOf[src])
	}
	// Reconstruct backwards, then reverse.
	rev := []int32{dst}
	for v := dst; v != src; {
		v = b.parent[v]
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

func (b *partBFS) bfsFrom(src int32) {
	b.version++
	b.lastSrc = src
	part := b.o.PartOf[src]
	b.stamp[src] = b.version
	b.parent[src] = src
	b.queue = b.queue[:0]
	b.queue = append(b.queue, src)
	for len(b.queue) > 0 {
		v := b.queue[0]
		b.queue = b.queue[1:]
		for _, h := range b.o.Graph.Neighbors(int(v)) {
			u := int32(h.To)
			if b.stamp[u] == b.version || b.o.PartOf[u] != part {
				continue
			}
			b.stamp[u] = b.version
			b.parent[u] = v
			b.queue = append(b.queue, u)
		}
	}
}
