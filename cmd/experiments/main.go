// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md §2 for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	experiments -run all                 # everything, default scale
//	experiments -run table3,table4      # selected artifacts
//	experiments -scale quick            # small smoke-test corpus
//	experiments -run accuracy           # labeled accuracy at 10⁴–10⁵ papers (not part of 'all')
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"iuad/internal/accuracy"
	"iuad/internal/experiments"
)

var runners = []string{"eq2", "fig3", "table3", "table4", "table5", "fig5", "table6", "fig6"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids ("+strings.Join(runners, ",")+"), 'all' of those, or 'accuracy'")
		scale   = flag.String("scale", "default", "corpus scale: default | quick")
		seed    = flag.Int64("seed", 0, "override corpus seed (0 = config default)")
		workers = flag.Int("workers", 0, "IUAD worker pool size (0 = one per logical CPU; results are identical for any value)")
		accN    = flag.String("accuracy-papers", "10000,40000,120000", "comma-separated target corpus sizes of -run accuracy")
	)
	flag.Parse()

	want, err := parseRun(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	var opts experiments.Options
	switch *scale {
	case "default":
		opts = experiments.DefaultOptions()
	case "quick":
		opts = experiments.QuickOptions()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	if *seed != 0 {
		opts.Synth.Seed = *seed
	}
	if *workers != 0 {
		opts.Core.Workers = *workers
	}

	if want["eq2"] {
		tab := experiments.RunEq2()
		tab.Fprint(os.Stdout)
		fmt.Println()
	}
	if want["accuracy"] {
		tab := runAccuracy(*accN, *seed)
		tab.Fprint(os.Stdout)
		fmt.Println()
		if len(want) == 1 {
			return // it generates its own corpora: no suite to build
		}
	}

	start := time.Now()
	s, err := experiments.NewSuite(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suite: %d papers, %d names, %d test names (built in %v)\n\n",
		s.Corpus.Len(), len(s.Corpus.Names()), len(s.TestNames),
		time.Since(start).Round(time.Millisecond))

	show := func(tab experiments.Table, err error) {
		if err != nil {
			log.Fatal(err)
		}
		tab.Fprint(os.Stdout)
		fmt.Println()
	}
	if want["fig3"] {
		r, err := experiments.RunFig3(s.Dataset)
		if err != nil {
			log.Fatal(err)
		}
		for _, tab := range r.Tables() {
			tab.Fprint(os.Stdout)
			fmt.Println()
		}
	}
	if want["table3"] {
		tab, results, err := experiments.RunTable3(s)
		show(tab, err)
		for _, r := range results {
			fmt.Printf("  %-9s avg %v per name\n", r.Method, r.PerName.Round(time.Microsecond))
		}
		fmt.Println()
	}
	if want["table4"] {
		tab, _, err := experiments.RunTable4(s)
		show(tab, err)
	}
	if want["table5"] {
		tab, _, err := experiments.RunTable5(s, nil)
		show(tab, err)
	}
	if want["fig5"] {
		tab, err := experiments.RunFig5(s, nil)
		show(tab, err)
	}
	if want["table6"] {
		tab, _, err := experiments.RunTable6(s, nil)
		show(tab, err)
	}
	if want["fig6"] {
		tabs, err := experiments.RunFig6(s)
		if err != nil {
			log.Fatal(err)
		}
		for _, tab := range tabs {
			tab.Fprint(os.Stdout)
			fmt.Println()
		}
	}
}

// parseRun parses the -run list: experiment ids, "all" for every id of
// runners, and "accuracy". An unknown or empty id is an error naming the
// valid ones, before anything is built.
func parseRun(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, r := range strings.Split(list, ",") {
		switch r = strings.TrimSpace(r); {
		case r == "all":
			for _, id := range runners {
				want[id] = true
			}
		case r == "accuracy" || slices.Contains(runners, r):
			want[r] = true
		default:
			return nil, fmt.Errorf("unknown -run id %q; valid ids: all, accuracy, %s", r, strings.Join(runners, ", "))
		}
	}
	return want, nil
}

// runAccuracy runs the labeled accuracy scenario (internal/accuracy,
// EXPERIMENTS.md) at each target corpus size: the whole corpus fitted in
// batch against a 95% prefix fitted and the rest streamed through
// AddPapers, both scored against the generator's ground truth.
func runAccuracy(papersCSV string, seed int64) experiments.Table {
	if seed == 0 {
		seed = 1
	}
	tab := experiments.Table{ID: "accuracy", Title: fmt.Sprintf("labeled accuracy scenario, seed %d", seed),
		Header: []string{"papers", "names", "batch F1 / B3 / purity", "incr F1 / B3 / purity", "gap", "epochs", "batch", "incr"}}
	for _, tok := range strings.Split(papersCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1000 {
			log.Fatalf("bad -accuracy-papers entry %q (want paper counts of at least 1000)", tok)
		}
		res, err := accuracy.Run(accuracy.Scale(n, seed))
		if err != nil {
			log.Fatalf("accuracy at %d papers: %v", n, err)
		}
		b, inc := res.Batch.Metrics, res.Incremental.Metrics
		tab.Rows = append(tab.Rows, []string{
			strconv.Itoa(res.Papers), strconv.Itoa(res.AmbiguousNames),
			fmt.Sprintf("%.3f / %.3f / %.3f", b.Pairwise.MicroF, b.B3F, b.Purity),
			fmt.Sprintf("%.3f / %.3f / %.3f", inc.Pairwise.MicroF, inc.B3F, inc.Purity),
			fmt.Sprintf("%.3f", res.PairwiseF1Gap), strconv.Itoa(res.Incremental.EpochPublishes),
			time.Duration(res.Batch.WallNs).Round(time.Millisecond).String(),
			time.Duration(res.Incremental.WallNs).Round(time.Millisecond).String(),
		})
	}
	return tab
}
