// Command servebench is the end-to-end benchmark of the wdcserve matching
// daemon. It runs an in-process serve.Server behind a loopback HTTP
// listener and drives it with one closed-loop client on one keep-alive
// connection through sequential phases — set-up, ingest, match,
// candidates, check — so that nothing else is in flight during a phase.
// The inputs are generated from --seed; every answer the daemon gives in
// the check phase is compared with a from-scratch build.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash servebench/run.sh --workload minhash-read --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh --workload ivf-ingest --seed 1 --seconds 10 --repeat 10
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). --repeat N instead runs N fresh
// processes with seeds seed..seed+N-1 and prints each metric's median
// and quartiles. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// runLimit bounds one run; past it the process exits without a result.
const runLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "read-phase length: requests are sized to about this many seconds")
	trace := flag.Int("trace", 0, "1 = traced run: record spans and print the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run this many fresh processes with consecutive seeds and summarize them")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintf(os.Stderr, "servebench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(w.name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	res, err := runOnce(w, *seed, *seconds, *trace == 1)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string { return sortedKeys(workloads) }

// runOnce generates the inputs and runs every phase of one workload.
func runOnce(w workload, seed int64, seconds int, traced bool) (result, error) {
	start := time.Now()
	in, err := generate(w, seed, seconds)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	if work, err = filepath.Abs(work); err != nil {
		return result{}, err
	}
	r := &runner{w: w, in: in, log: os.Stderr, work: work}
	defer r.removeWork()
	if traced {
		r.tr = newTracer()
	}
	r.logf("seed %d: %d offers (%d seed + %d streamed), %d match ids, %d windows, %d check ids, inputs %s",
		seed, len(in.offers), in.seedN, len(in.offers)-in.seedN, len(in.matchIDs), len(in.windows), len(in.checkIDs), in.digest())
	if err := r.execute(seconds); err != nil {
		return result{}, err
	}
	res := r.report()
	for _, k := range sortedKeys(r.e2e) {
		r.logf("%-22s %12.4f %s", k, r.e2e[k].Value, r.e2e[k].Unit)
	}
	if traced {
		for _, k := range sortedKeys(r.layer) {
			r.logf("%-26s %14.4f %s", k, r.layer[k].Value, r.layer[k].Unit)
		}
		path, err := r.writeSpans(seed)
		if err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		r.logf("%d spans written to %s", len(r.tr.spans), path)
	}
	r.logf("%d operations, %d failed, correct=%v, %.1fs", res.Attempted, res.Failed, res.Correct, time.Since(start).Seconds())
	return res, nil
}
