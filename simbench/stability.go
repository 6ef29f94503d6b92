package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// stabilityCmd runs each named workload runs times, one child process per
// run with seeds 1..runs, and prints for every end-to-end metric the
// median, the quartiles, the interquartile range as a share of the median
// (the spread BENCHMARK.json bounds) and the max/min ratio.
func stabilityCmd(names []string, runs int, seconds float64, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, err := newWorkload(name, nominalProcs[name]); err != nil {
			return err
		}
		values := map[string][]float64{}
		units := map[string]string{}
		shares := map[string]bool{}
		for seed := 1; seed <= runs; seed++ {
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			rep, err := lastReport(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", name, seed)
			}
			shares[fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted)] = true
			for k, m := range rep.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "%s: %d runs, failed/attempted per run: %v\n", name, runs, setKeys(shares))
		fmt.Fprintf(stdout, "  %-16s %14s %14s %14s %8s %8s  %s\n", "metric", "median", "q1", "q3", "iqr/med", "max/min", "unit")
		for _, k := range keys {
			s := summarize(values[k])
			fmt.Fprintf(stdout, "  %-16s %14.6g %14.6g %14.6g %7.2f%% %8.3f  %s\n",
				k, s.Median, s.Q1, s.Q3, 100*s.IQRShare, s.MaxMin, units[k])
		}
	}
	return nil
}

func setKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lastReport parses the report on the last line of a run's output.
func lastReport(out []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, errors.New("no result line")
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rep, nil
}
