// Command bench is the repository's one benchmark (BENCHMARK.json).
//
// End-to-end runs drive the real cmd/iuadserver binary as a child
// process over loopback HTTP with product defaults; a separate traced
// run times the calls into each layer's public functions in-process.
// See bench/README.md for the workloads, the metrics and the caveats.
//
//	go run ./bench                                  all five workloads, seed 1
//	go run ./bench --workload fit-cold --seed 3 --seconds 10 --trace 0
//	go run ./bench trace [--workload serve-reads]   per-layer metrics and span files
//	go run ./bench repeat                           the whole set twice, compared against the bounds
//	go run ./bench sweep                            workers × shards × batch table (informational)
//	go run ./bench pin                              rewrite bench/fingerprints.json (seeds 1-12)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	sub := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "one workload by name (default: all five)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "seconds of measured traffic per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the root of the checkout)\n", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	var todo []shape
	if *workload == "" {
		todo = shapes
	} else if sh, ok := shapeByName(*workload); ok {
		todo = []shape{sh}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	// The load generator's own collections must not shape the tails it
	// measures: with the default target it collects about once a second,
	// each time taking a share of the two cores for some milliseconds.
	debug.SetGCPercent(400)

	// A signal must not leave servers behind: reap them, then die.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		removeScratch("")
		os.Exit(130)
	}()

	bin, err := buildServer()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: nproc=%d GOMAXPROCS=%d connections=%d rev=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), connections(), gitRev())

	switch sub {
	case "":
		return runAndPrint(bin, todo, *seed, *seconds, *trace == 1)
	case "trace":
		return runAndPrint(bin, todo, *seed, *seconds, true)
	case "repeat":
		return repeat(bin, bf, todo, *seed, *seconds)
	case "sweep":
		return sweep(bin, *seed)
	case "pin":
		if err := writePins(12); err != nil {
			fmt.Fprintf(os.Stderr, "bench: pin: %v\n", err)
			return 1
		}
		return 0
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown subcommand %q (trace, repeat, sweep, pin)\n", sub)
		return 2
	}
}

// runAndPrint runs each workload once and prints, per workload, the
// timings and then the result object as the last line.
func runAndPrint(bin string, todo []shape, seed int64, seconds float64, traced bool) int {
	code := 0
	for _, sh := range todo {
		res, err := runWorkload(bin, sh, seed, seconds, fullScale)
		var layers map[string]float64
		if err == nil && traced {
			layers, err = tracedRun(sh, seed, fullScale, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sh.name, err)
			return 1
		}
		fmt.Printf("== %s (seed %d, %.3gs measured)\n", sh.name, seed, seconds)
		for _, l := range res.lines {
			fmt.Println(l)
		}
		fmt.Printf("operations: %d attempted, %d failed\n", res.attempted, res.failed)
		out := outcome{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
		list, vals := endToEnd, res.e2e
		if traced {
			list, vals = perLayer, layers
		}
		for _, m := range list {
			v, ok := vals[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", sh.name, m.name)
				return 1
			}
			fmt.Printf("%-38s %14.6g %s\n", m.name, v, m.unit)
			out.Metrics[m.name] = value{Value: v, Unit: m.unit}
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
		if res.failed > 0 {
			code = 1
		}
	}
	return code
}

// outcome is the result object the driver reads from the last line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gitRev names the commit being measured, when the checkout is a git
// repository (the driver's is not).
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(".git/" + name)
		if err != nil {
			return name
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}
