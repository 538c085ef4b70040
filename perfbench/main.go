// Command perfbench is the repository's measured benchmark. One run executes
// one named workload for a fixed time and prints, as its last line, one JSON
// object with the correctness tally and the metrics:
//
//	--trace 0  end-to-end metrics, measured with no tracing in the loop;
//	--trace 1  per-layer metrics from a traced replay of the same pipeline.
//
// Build and run it through run.sh (see NOTES.md):
//
//	bash perfbench/run.sh --workload setup-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"fsaicomm/internal/mprun"
)

func main() {
	// The tcp transport re-executes this binary as its rank workers.
	mprun.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts checked operations and the ones that failed a check.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// op records one operation; a non-nil err marks it failed.
func (t *tally) op(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: FAILED %s: %v\n", what, err)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the generated right-hand sides")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload {%s} --seconds >0 --trace {0,1}\n", strings.Join(workloadNames(), ","))
		return 2
	}
	procs := capProcs()
	env, _ := json.Marshal(map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": procs,
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
	})
	fmt.Fprintf(stdout, "# env %s\n", env)

	t := &tally{log: stderr}
	m := metrics{}
	var err error
	if *trace == 1 {
		err = runTraced(w, *seed, *seconds, t, m)
	} else {
		err = runEndToEnd(w, *seed, *seconds, t, m)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// capProcs caps GOMAXPROCS at the CPU count and returns the value in force.
func capProcs() int {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	return runtime.GOMAXPROCS(0)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
