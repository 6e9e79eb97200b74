// Package fpgrowth counts the η-stable collaborative relations of the
// paper (§IV-C, Step I): name pairs co-occurring at least η times
// across co-author lists. The paper mines them with FP-growth (Han et
// al., SIGMOD 2000); stage 1 of IUAD only consumes 2-itemsets, so
// FrequentPairs counts those directly and builds no tree.
// PairFrequencies is the full histogram behind Fig. 3(b).
package fpgrowth

import (
	"sort"
)

// Pair is an unordered item pair with A < B lexicographically.
type Pair struct {
	A, B string
}

// MakePair normalizes the order of a pair.
func MakePair(a, b string) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{a, b}
}

// FrequentPairs counts the co-occurrence frequency of every unordered
// item pair across the transactions and returns those with support ≥
// minSupport. Duplicate items within one transaction are counted once.
func FrequentPairs(transactions [][]string, minSupport int) map[Pair]int {
	if minSupport < 1 {
		minSupport = 1
	}
	counts := make(map[Pair]int)
	for _, tx := range transactions {
		items := dedup(tx)
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				counts[MakePair(items[i], items[j])]++
			}
		}
	}
	for p, c := range counts {
		if c < minSupport {
			delete(counts, p)
		}
	}
	return counts
}

// PairFrequencies returns the full pair-frequency histogram (support ≥ 1),
// used by the Fig. 3(b) descriptive analysis.
func PairFrequencies(transactions [][]string) map[Pair]int {
	return FrequentPairs(transactions, 1)
}

func dedup(tx []string) []string {
	if len(tx) < 2 {
		return tx
	}
	out := append([]string(nil), tx...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
