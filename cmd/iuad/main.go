// Command iuad runs the full IUAD pipeline on a JSONL corpus and prints
// the reconstructed author clusters for the requested (or the most
// ambiguous) names.
//
// Usage:
//
//	iuad -in corpus.jsonl [-eta 2] [-workers 0] [-name "Wei Wang"] [-top 5]
//	     [-save pipeline.snap]
//	iuad -load pipeline.snap [-name "Wei Wang"] [-top 5]
//
// -save writes the fitted pipeline as a base snapshot (the file
// iuadserver -snapshot reads); -load restores one instead of re-running
// EM over the corpus, so a warm pipeline serves immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"iuad"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iuad: ")
	var (
		in      = flag.String("in", "", "input corpus (JSONL; see cmd/gendata)")
		eta     = flag.Int("eta", 2, "η-SCR support threshold")
		workers = flag.Int("workers", 0, "worker pool size (0 = one per logical CPU; output is identical for any value)")
		name    = flag.String("name", "", "print clusters of this name only")
		top     = flag.Int("top", 5, "without -name: print the top-N most fragmented names")
		save    = flag.String("save", "", "write a base snapshot of the fitted pipeline here after disambiguation")
		load    = flag.String("load", "", "restore a base snapshot instead of fitting (-in is ignored)")
	)
	flag.Parse()
	if *in == "" && *load == "" {
		flag.Usage()
		os.Exit(2)
	}
	var pl *iuad.Pipeline
	if *load != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "eta" || f.Name == "in" {
				log.Printf("warning: -%s is ignored with -load (the snapshot carries the fitted pipeline)", f.Name)
			}
		})
		start := time.Now()
		// -workers applies after load (output is identical for any
		// value). Never Close: it would write the file back.
		svc, err := iuad.Open(nil, iuad.WithSnapshot(*load), iuad.WithWorkers(*workers))
		if err != nil {
			log.Fatal(err)
		}
		pl = svc.Pipeline()
		fmt.Printf("pipeline restored from %s in %v (no retraining)\n",
			*load, time.Since(start).Round(time.Millisecond))
	} else {
		corpus, err := iuad.LoadCorpusFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		cfg := iuad.DefaultConfig()
		cfg.Eta = *eta
		cfg.Workers = *workers
		pl, err = iuad.Disambiguate(corpus, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *save != "" {
		svc, err := iuad.NewService(pl)
		if err == nil {
			err = svc.SaveFile(*save)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pipeline snapshot written to %s\n", *save)
	}
	corpus := pl.Corpus
	names := corpus.Names()
	fmt.Printf("corpus: %d papers, %d names\n", corpus.Len(), len(names))
	fmt.Printf("SCN: %d vertices, %d edges\n", pl.SCN.VertexCount(), pl.SCN.EdgeCount())
	fmt.Printf("GCN: %d vertices, %d edges (threshold %.2f)\n\n",
		pl.GCN.VertexCount(), pl.GCN.EdgeCount(), pl.CalibratedDelta+pl.Cfg.Delta)

	if *name != "" {
		names = []string{*name}
	} else {
		sort.Slice(names, func(i, j int) bool {
			return len(pl.GCN.VerticesOf(names[i])) > len(pl.GCN.VerticesOf(names[j]))
		})
		if len(names) > *top {
			names = names[:*top]
		}
	}
	for _, n := range names {
		printName(pl, n)
	}
}

func printName(pl *iuad.Pipeline, name string) {
	ids := pl.GCN.VerticesOf(name)
	fmt.Printf("%q resolves to %d author(s):\n", name, len(ids))
	for k, id := range ids {
		v := pl.GCN.Verts[id]
		fmt.Printf("  author #%d: %d papers\n", k+1, len(v.Papers))
		for _, pid := range v.Papers {
			p := pl.Corpus.Paper(pid)
			fmt.Printf("    [%d] %s (%s)\n", p.Year, p.Title, p.Venue)
		}
	}
	fmt.Println()
}
