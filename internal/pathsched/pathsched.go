// Package pathsched schedules packets along fixed paths under CONGEST
// edge capacities and measures the exact number of rounds needed.
//
// The hierarchical embedding (§3.1) maps every virtual edge to a recorded
// path in the base graph. Delivering a batch of virtual messages therefore
// reduces to store-and-forward packet routing along fixed paths, one
// packet per directed edge per round. This package runs that process with
// synchronous FIFO queues and reports the makespan, which is the measured
// emulation cost the experiments compare against the paper's
// O(congestion + dilation)-flavored lemmas (3.1, 3.2, 3.4).
package pathsched

import (
	"fmt"
	"math"
	"slices"

	"almostmix/internal/cost"
)

// Result summarizes one scheduling run.
type Result struct {
	// Makespan is the number of rounds until every packet reached the
	// end of its path.
	Makespan int
	// Congestion is the maximum number of packets crossing any single
	// directed edge over the whole run (a lower bound on makespan).
	Congestion int
	// Dilation is the maximum path length in hops (also a lower bound).
	Dilation int
	// Delivered is the number of packets routed (= len(paths)).
	Delivered int
}

// Schedule routes one packet along each path and returns the measured
// costs. Paths are node-ID sequences; consecutive duplicate entries are
// skipped (lazy steps), and empty or single-node paths are delivered at
// time zero. Node IDs only need to be consistent within the path set —
// the scheduler never consults a graph, so callers are responsible for
// paths being walks of the level they schedule on.
//
// Every round, each directed link transmits the head of its FIFO queue;
// the packets a link receives in one round join its queue in packet-ID
// order. Links are dense IDs and queues are intrusive lists over packet
// IDs, so a round touches only the links that hold packets.
func Schedule(paths [][]int32) Result {
	res := Result{Delivered: len(paths)}
	seq, start, nNodes := compactPaths(paths)
	if len(seq) == 0 {
		return res
	}

	// Hop q runs from seq[q] to seq[q+1] for every q but a path's last
	// entry. Bucket hops by tail node, then give each distinct head of a
	// tail's bucket the next link ID; stamp[v] = tail+1 marks v as seen
	// in the current bucket.
	bucketStart := make([]int32, nNodes+1)
	for p := range paths {
		for q := start[p]; q+1 < start[p+1]; q++ {
			bucketStart[seq[q]+1]++
		}
	}
	for v := 1; v <= nNodes; v++ {
		bucketStart[v] += bucketStart[v-1]
	}
	bucket := make([]int32, bucketStart[nNodes])
	fill := slices.Clone(bucketStart[:nNodes])
	for p := range paths {
		for q := start[p]; q+1 < start[p+1]; q++ {
			bucket[fill[seq[q]]] = q
			fill[seq[q]]++
		}
	}
	link := make([]int32, len(seq)) // link[q] is hop q's link
	stamp := make([]int32, nNodes)
	linkOf := make([]int32, nNodes)
	nLinks := int32(0)
	for u := 0; u < nNodes; u++ {
		for _, q := range bucket[bucketStart[u]:bucketStart[u+1]] {
			v := seq[q+1]
			if stamp[v] != int32(u)+1 {
				stamp[v] = int32(u) + 1
				linkOf[v] = nLinks
				nLinks++
			}
			link[q] = linkOf[v]
		}
	}

	// Congestion and dilation, from the dense link IDs.
	traversals := make([]int32, nLinks)
	for p := range paths {
		res.Dilation = max(res.Dilation, int(start[p+1]-start[p])-1)
		for q := start[p]; q+1 < start[p+1]; q++ {
			traversals[link[q]]++
			res.Congestion = max(res.Congestion, int(traversals[link[q]]))
		}
	}

	// Each link's queue is an intrusive FIFO over packet IDs, -1
	// terminated; pending lists collect one round's arrivals per link in
	// packet-ID order.
	queues := make([]linkQueue, nLinks)
	for l := range queues {
		queues[l] = linkQueue{head: -1, tail: -1, pendHead: -1, pendTail: -1}
	}
	pkts := make([]packet, len(paths))
	active := make([]int32, 0, nLinks)  // links with a non-empty queue
	arrived := make([]int32, 0, nLinks) // links with pending arrivals
	remaining := 0
	for p := range paths {
		if start[p+1]-start[p] <= 1 {
			continue
		}
		id := int32(p)
		pkts[p] = packet{next: -1, at: start[p], last: start[p+1] - 1}
		l := link[start[p]]
		if q := &queues[l]; q.head < 0 {
			q.head = id
			active = append(active, l)
		} else {
			pkts[q.tail].next = id
		}
		queues[l].tail = id
		remaining++
	}

	round := 0
	for remaining > 0 {
		round++
		kept := active[:0]
		for _, l := range active {
			q := &queues[l]
			id := q.head
			pk := &pkts[id]
			if q.head = pk.next; q.head >= 0 {
				kept = append(kept, l)
			} else {
				q.tail = -1
			}
			if pk.at++; pk.at >= pk.last {
				remaining--
				continue
			}
			// Insert into the next link's pending list, keeping packet-ID
			// order. A link receives at most one packet per incoming link
			// per round, so the lists stay short.
			nl := link[pk.at]
			switch nq := &queues[nl]; {
			case nq.pendHead < 0:
				nq.pendHead, nq.pendTail, pk.next = id, id, -1
				arrived = append(arrived, nl)
			case id > nq.pendTail:
				pkts[nq.pendTail].next, nq.pendTail, pk.next = id, id, -1
			case id < nq.pendHead:
				pk.next, nq.pendHead = nq.pendHead, id
			default:
				at := nq.pendHead
				for pkts[at].next < id {
					at = pkts[at].next
				}
				pk.next, pkts[at].next = pkts[at].next, id
			}
		}
		active = kept
		// Arrivals join their queues after every departure of the round.
		for _, l := range arrived {
			q := &queues[l]
			if q.head < 0 {
				q.head = q.pendHead
				active = append(active, l)
			} else {
				pkts[q.tail].next = q.pendHead
			}
			q.tail, q.pendHead = q.pendTail, -1
		}
		arrived = arrived[:0]
	}
	res.Makespan = round
	return res
}

// linkQueue is one link's FIFO (head, tail) and its pending arrivals of
// the current round (pendHead, pendTail), as packet IDs.
type linkQueue struct{ head, tail, pendHead, pendTail int32 }

// packet is one packet's queue link and progress: it waits to cross the
// hop whose tail is seq[at] and is delivered once at reaches last.
type packet struct{ next, at, last int32 }

// compactPaths flattens paths into seq with lazy repeats removed, path p
// occupying seq[start[p]:start[p+1]], and renames node IDs to dense
// indices 0..nNodes−1: an offset from the smallest ID when the IDs span a
// range comparable to the input, a rank among the distinct IDs otherwise.
func compactPaths(paths [][]int32) (seq, start []int32, nNodes int) {
	entries, kept := 0, 0 // all entries; entries that are not lazy repeats
	lo, hi := int64(math.MaxInt32), int64(math.MinInt32)
	for _, p := range paths {
		entries += len(p)
		for j, v := range p {
			lo, hi = min(lo, int64(v)), max(hi, int64(v))
			if j == 0 || v != p[j-1] {
				kept++
			}
		}
	}
	if entries >= math.MaxInt32 {
		panic(fmt.Sprintf("pathsched: %d path entries exceed int32 indexing", entries))
	}
	var ids []int32 // sorted distinct IDs when renaming by rank
	if span := hi - lo + 1; span > 2*int64(entries)+64 {
		ids = make([]int32, 0, entries)
		for _, p := range paths {
			ids = append(ids, p...)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		nNodes = len(ids)
	} else if entries > 0 {
		nNodes = int(span)
	}
	seq = make([]int32, 0, kept)
	start = make([]int32, len(paths)+1)
	for i, p := range paths {
		for j, v := range p {
			if j > 0 && v == p[j-1] {
				continue
			}
			if ids != nil {
				k, _ := slices.BinarySearch(ids, v)
				seq = append(seq, int32(k))
			} else {
				seq = append(seq, int32(int64(v)-lo))
			}
		}
		start[i+1] = int32(len(seq))
	}
	return seq, start, nNodes
}

// ScheduleInto schedules like Schedule and charges the measured makespan
// to sp, in sp's own unit — the caller chooses the span whose multiplier
// converts schedule rounds into its parent's currency (a leaf-movement
// span converting G_k rounds to G0 rounds, a baseline span charging base
// rounds directly, …). A nil span only schedules.
func ScheduleInto(paths [][]int32, sp *cost.Span) Result {
	res := Schedule(paths)
	sp.Add(res.Makespan)
	return res
}

// Validate checks that every path is a walk of the adjacency oracle (used
// by tests and by embedding audits). adjacent(a, b) must report whether a
// and b are neighbors at the level the paths live on.
func Validate(paths [][]int32, adjacent func(a, b int32) bool) error {
	for i, p := range paths {
		for j := 1; j < len(p); j++ {
			if p[j] == p[j-1] {
				continue
			}
			if !adjacent(p[j-1], p[j]) {
				return fmt.Errorf("pathsched: path %d hop %d: %d and %d not adjacent", i, j, p[j-1], p[j])
			}
		}
	}
	return nil
}
