package main

import (
	"fmt"
	"math"
	"os"
)

// repeatRuns is how many runs of each workload make up one set.
const repeatRuns = 3

// repeat measures the same code and seed as two sets and compares, for
// every workload, the median of each end-to-end metric in the second set
// with the first. Two sets that disagree by more than a metric's bound
// mean the benchmark cannot tell a regression of that size from noise, so
// the command exits non-zero. The runs of the two sets alternate, so a
// slow stretch of the box falls on both.
func repeat(bin string, bf *benchmarkFile, todo []shape, seed int64, seconds float64) int {
	code := 0
	fmt.Printf("%-16s %-22s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	for _, sh := range todo {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for n := 0; n < repeatRuns; n++ {
			for i := range sets {
				fmt.Fprintf(os.Stderr, "repeat: %s, set %d, run %d of %d\n", sh.name, i+1, n+1, repeatRuns)
				res, err := runWorkload(bin, sh, seed, seconds, fullScale)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sh.name, err)
					return 1
				}
				if res.failed > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", sh.name, res.failed, res.attempted)
					return 1
				}
				for name, v := range res.e2e {
					sets[i][name] = append(sets[i][name], v)
				}
			}
		}
		for _, d := range bf.EndToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			change := (b - a) / a
			verdict := ""
			if math.Abs(change) > d.Bound {
				verdict = "  DIFFERS"
				code = 1
			}
			fmt.Printf("%-16s %-22s %12.5g %12.5g %+8.1f%% %6.1f%%%s\n", sh.name, d.Name, a, b, 100*change, 100*d.Bound, verdict)
		}
	}
	if code != 0 {
		fmt.Println("repeat: two sets of runs of the same code disagree by more than a bound")
	}
	return code
}
