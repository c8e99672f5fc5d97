package pathsched

// The scheduler as it stood before the dense-link rewrite, kept verbatim
// (renamed, unexported) as the differential oracle of oracle_test.go:
// map-keyed link queues and a global sort of each round's arrivals. Only
// identifiers changed.

import "slices"

// oracleLinkKey packs a directed edge between two int32 node IDs.
func oracleLinkKey(from, to int32) int64 {
	return int64(uint32(from))<<32 | int64(uint32(to))
}

// oracleSchedule routes one packet along each path and returns the measured
// costs. Paths are node-ID sequences; consecutive duplicate entries are
// skipped (lazy steps), and empty or single-node paths are delivered at
// time zero. Node IDs only need to be consistent within the path set —
// the scheduler never consults a graph, so callers are responsible for
// paths being walks of the level they schedule on.
func oracleSchedule(paths [][]int32) Result {
	hops := make([][]int32, len(paths)) // compacted paths (duplicates removed)
	res := Result{Delivered: len(paths)}
	traversals := make(map[int64]int)
	for i, p := range paths {
		compact := make([]int32, 0, len(p))
		for j, v := range p {
			if j == 0 || v != compact[len(compact)-1] {
				compact = append(compact, v)
			}
		}
		hops[i] = compact
		if len(compact)-1 > res.Dilation {
			res.Dilation = len(compact) - 1
		}
		for j := 1; j < len(compact); j++ {
			k := oracleLinkKey(compact[j-1], compact[j])
			traversals[k]++
			if traversals[k] > res.Congestion {
				res.Congestion = traversals[k]
			}
		}
	}

	// Synchronous FIFO store-and-forward: every round, each directed
	// link transmits the head-of-line packet.
	pos := make([]int, len(paths)) // next hop index (1-based into hops[i])
	queues := make(map[int64][]int32)
	remaining := 0
	for i, h := range hops {
		if len(h) <= 1 {
			continue
		}
		pos[i] = 1
		k := oracleLinkKey(h[0], h[1])
		queues[k] = append(queues[k], int32(i))
		remaining++
	}
	round := 0
	moved := make([]int32, 0, len(queues))
	for remaining > 0 {
		round++
		moved = moved[:0]
		for k, q := range queues {
			pkt := q[0]
			if len(q) == 1 {
				delete(queues, k)
			} else {
				queues[k] = q[1:]
			}
			moved = append(moved, pkt)
		}
		// Sort arrivals so queue order (and thus the makespan) does not
		// depend on map iteration order: runs are deterministic.
		slices.Sort(moved)
		for _, pkt := range moved {
			h := hops[pkt]
			pos[pkt]++
			if pos[pkt] >= len(h) {
				remaining--
				continue
			}
			k := oracleLinkKey(h[pos[pkt]-1], h[pos[pkt]])
			queues[k] = append(queues[k], pkt)
		}
	}
	res.Makespan = round
	return res
}
