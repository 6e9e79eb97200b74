package fpgrowth

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// paperExample is the transaction set from Fig. 2 of the paper:
// p1..p8 with their co-author lists.
var paperExample = [][]string{
	{"a", "b", "c", "d"}, // p1
	{"a", "c", "d"},      // p2
	{"a", "b", "c"},      // p3
	{"a", "b", "c"},      // p4
	{"b", "e"},           // p5
	{"b", "e"},           // p6
	{"b", "f"},           // p7
	{"b", "g"},           // p8
}

func TestFrequentPairsPaperExample(t *testing.T) {
	pairs := FrequentPairs(paperExample, 2)
	want := map[Pair]int{
		{"a", "b"}: 3,
		{"a", "c"}: 4,
		{"a", "d"}: 2,
		{"b", "c"}: 3,
		{"c", "d"}: 2,
		{"b", "e"}: 2,
	}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("FrequentPairs=%v,\nwant %v", pairs, want)
	}
}

func TestFrequentPairsDedupWithinTransaction(t *testing.T) {
	pairs := FrequentPairs([][]string{{"x", "y", "x"}}, 1)
	if pairs[MakePair("x", "y")] != 1 {
		t.Fatalf("duplicate items inflated support: %v", pairs)
	}
}

func TestMakePairOrders(t *testing.T) {
	if MakePair("z", "a") != (Pair{"a", "z"}) {
		t.Fatal("MakePair does not normalize")
	}
	if MakePair("a", "z") != (Pair{"a", "z"}) {
		t.Fatal("MakePair broke ordered input")
	}
}

// bruteForce counts every pair of distinct items by testing each
// transaction for both members.
func bruteForce(transactions [][]string, minSupport int) map[Pair]int {
	universe := map[string]bool{}
	for _, tx := range transactions {
		for _, it := range tx {
			universe[it] = true
		}
	}
	var all []string
	for it := range universe {
		all = append(all, it)
	}
	sort.Strings(all)
	counts := map[Pair]int{}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			n := 0
			for _, tx := range transactions {
				if slices.Contains(tx, all[i]) && slices.Contains(tx, all[j]) {
					n++
				}
			}
			if n >= minSupport {
				counts[Pair{all[i], all[j]}] = n
			}
		}
	}
	return counts
}

// Property: FrequentPairs matches brute-force pair counting on random
// small transaction databases, duplicates within a transaction included.
func TestFrequentPairsAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		items := []string{"a", "b", "c", "d", "e"}
		txs := make([][]string, 1+rng.Intn(12))
		for i := range txs {
			for k := 1 + rng.Intn(5); k > 0; k-- {
				txs[i] = append(txs[i], items[rng.Intn(len(items))])
			}
		}
		minSup := rng.Intn(4) // 0 is clamped to 1
		got, want := FrequentPairs(txs, minSup), bruteForce(txs, max(minSup, 1))
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d:\ntxs=%v\ngot= %v\nwant=%v", seed, txs, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if got := FrequentPairs([][]string{{"only"}, {}}, 1); len(got) != 0 {
		t.Fatalf("single-item and empty txs produced pairs: %v", got)
	}
}

func TestPairFrequenciesHistogramShape(t *testing.T) {
	freq := PairFrequencies(paperExample)
	// Every co-occurring pair appears, including support-1 ones.
	if freq[MakePair("b", "f")] != 1 || freq[MakePair("b", "g")] != 1 {
		t.Fatalf("support-1 pairs missing: %v", freq)
	}
	if len(freq) != 9 {
		t.Fatalf("distinct pairs=%d, want 9", len(freq))
	}
}
