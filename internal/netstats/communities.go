package netstats

import (
	"sort"
	"sync"
)

// maxLabelRounds caps label-propagation sweeps; weighted LPA with a
// fixed sweep order converges in a handful of rounds on collaboration
// networks, and the cap bounds adversarial oscillation.
const maxLabelRounds = 64

// Communities is the deterministic label-propagation partition of one
// epoch's vertices.
type Communities struct {
	Epoch uint64 `json:"epoch"`
	Count int    `json:"count"`
	// Rounds is the number of full sweeps executed; Converged reports
	// that the final sweep changed no label (false only if
	// maxLabelRounds was hit first).
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	// Sizes is descending, truncated to maxReportedSizes (Count is the
	// untruncated total).
	Sizes []int `json:"sizes"`
	// Labels maps every global vertex ID to its community index —
	// communities are numbered by descending size, ties broken by
	// smallest member ID. Shared; do not mutate.
	Labels []int32 `json:"-"`
}

type communitiesOnce struct {
	once sync.Once
	res  *Communities
}

// Communities returns the epoch's community partition, computing it on
// first call (under a sync.Once, so concurrent callers never observe a
// half-built result) and serving the cached pointer afterwards.
//
// Determinism contract: labels are seeded with the interned vertex ID,
// sweeps visit vertices in ascending ID order updating in place, each
// vertex adopts the label with the highest incident edge-weight sum
// with ties broken by the smallest label value, and the sweep loop is
// serial — so the partition is byte-identical across runs and worker
// counts for the same epoch.
func (g *Graph) Communities() *Communities {
	g.comm.once.Do(func() { g.comm.res = g.computeCommunities() })
	return g.comm.res
}

func (g *Graph) computeCommunities() *Communities {
	res := &Communities{Epoch: g.epoch}
	labels := make([]int32, g.n)
	for i := range labels {
		labels[i] = int32(i)
	}
	tally := map[int32]int64{}
	for res.Rounds < maxLabelRounds {
		res.Rounds++
		changed := 0
		for v := 0; v < g.n; v++ {
			row, w := g.row(v)
			if len(row) == 0 {
				continue
			}
			clear(tally)
			for i, u := range row {
				tally[labels[u]] += int64(w[i])
			}
			// Pick the winner by walking the row (not the map) so the
			// scan order is deterministic.
			best, bestW := labels[v], int64(-1)
			for _, u := range row {
				l := labels[u]
				wt, seen := tally[l]
				if !seen {
					continue // already consumed below
				}
				if wt > bestW || (wt == bestW && l < best) {
					best, bestW = l, wt
				}
				delete(tally, l)
			}
			if best != labels[v] {
				labels[v] = best
				changed++
			}
		}
		if changed == 0 {
			res.Converged = true
			break
		}
	}

	// Canonicalize: communities numbered by descending size, ties by
	// smallest member ID.
	type comm struct {
		label int32
		size  int
		min   int32
	}
	byLabel := map[int32]*comm{}
	for v := 0; v < g.n; v++ {
		c, ok := byLabel[labels[v]]
		if !ok {
			c = &comm{label: labels[v], min: int32(v)}
			byLabel[labels[v]] = c
		}
		c.size++
	}
	comms := make([]*comm, 0, len(byLabel))
	for _, c := range byLabel {
		comms = append(comms, c)
	}
	sort.Slice(comms, func(i, j int) bool {
		if comms[i].size != comms[j].size {
			return comms[i].size > comms[j].size
		}
		return comms[i].min < comms[j].min
	})
	index := make(map[int32]int32, len(comms))
	res.Count = len(comms)
	res.Sizes = make([]int, 0, min(len(comms), maxReportedSizes))
	for i, c := range comms {
		index[c.label] = int32(i)
		if i < maxReportedSizes {
			res.Sizes = append(res.Sizes, c.size)
		}
	}
	res.Labels = make([]int32, g.n)
	for v := 0; v < g.n; v++ {
		res.Labels[v] = index[labels[v]]
	}
	return res
}
