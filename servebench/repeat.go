package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns runs the workload n times, each in a fresh process with its
// own seed, and prints every metric's median, quartiles and quartile
// spread as a share of the median, plus each run's failed share. This is
// the evidence that the benchmark is steady, and how its bounds are
// derived again.
func repeatRuns(name string, seed int64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d (share %.6f)",
			s, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			fmt.Printf(" %s=%.4g", k, m.Value)
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Println()
	}
	fmt.Printf("%-26s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, k := range sortedKeys(units) {
		v := values[k]
		med := median(v)
		q1, q3 := med, med
		if len(v) >= 2 {
			q1, q3 = quartiles(v)
		}
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-26s %14.4f %14.4f %14.4f %7.2f%% %s\n", k, q1, med, q3, 100*spread, units[k])
	}
	return nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
