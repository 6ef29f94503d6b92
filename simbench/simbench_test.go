package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"limitless/internal/check"
	"limitless/internal/directory"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/proc"
)

// smokeProcs is each workload's reduced machine size for the fast tests.
var smokeProcs = map[string]int{
	"fig-weather-p64":       16,
	"multigrid-p256":        16,
	"weather-p1024-sharded": 64,
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{0.3, 0.1, 0.9, 0.7}, 0.15, 0.85},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Median != 5.5 || math.Abs(s.IQRShare-1) > 1e-12 || s.MaxMin != 10 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestFoldModule(t *testing.T) {
	for fn, want := range map[string]string{
		"limitless/internal/sim.(*Engine).RunUntil":                 "sim",
		"limitless/internal/workload.Weather.func1.3":               "workload",
		"limitless/internal/coherence.(*MemoryController).Handle":   "coherence",
		"limitless/internal/machine.New":                            "other",
		"limitless/internal/protocol.Lookup":                        "other",
		"runtime.mallocgc":                                          "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":              "runtime",
		"sync.(*Mutex).Lock":                                        "other",
		"main.(*tap).Next":                                          "other",
		"limitless/internal/sim.fn[go.shape.*limitless/internal/x]": "sim",
	} {
		if got := foldModule(fn); got != want {
			t.Errorf("foldModule(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfileSumsToTotal profiles a busy loop and checks the folds
// cover every sample of the profile exactly once.
func TestFoldProfileSumsToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	w, err := newWorkload("multigrid-p256", 16)
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		runJob(w, plain)
	}
	pprof.StopCPUProfile()
	folds, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, folded int64
	for _, s := range p.samples {
		total += s.values[p.cpu]
	}
	for _, v := range folds {
		folded += v
	}
	if total == 0 || folded != total {
		t.Fatalf("folds sum to %d ns, profile total %d ns", folded, total)
	}
	if folds["sim"]+folds["coherence"]+folds["proc"] == 0 {
		t.Errorf("no samples charged to the simulator's modules: %v", folds)
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("a corrupt profile was accepted")
	}
}

// TestSmokeWorkloads runs every workload at a reduced machine size,
// untraced and traced, and checks that each passes its output checks and
// reports exactly the metrics BENCHMARK.json names.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	endToEnd, perLayer := benchmarkMetricNames(t)
	for _, name := range workloadNames {
		w, err := newWorkload(name, smokeProcs[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			var stderr bytes.Buffer
			rep, err := bench(w, options{seconds: 0.01, trace: trace}, &stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2*minJobs && trace || rep.Attempted < minJobs {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(rep.Metrics), len(want))
			}
			for _, k := range want {
				if _, ok := rep.Metrics[k]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, k)
				}
			}
			if !trace {
				for k, m := range rep.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

// benchmarkMetricNames reads the metric names BENCHMARK.json declares.
func benchmarkMetricNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// tapped runs one simulation with verifying taps and returns the pieces
// verifySim inspects, so tests can break them first.
func tapped(t *testing.T, s simSpec) (*machine.Machine, *simResult, []*tap, *check.Observer) {
	t.Helper()
	m := machine.New(s.config())
	obs := check.NewObserver()
	var taps []*tap
	for i, p := range s.gen() {
		tp := &tap{inner: p, node: mesh.NodeID(i), obs: obs}
		taps = append(taps, tp)
		m.SetWorkload(mesh.NodeID(i), 0, tp)
	}
	out := &simResult{name: s.name, procs: s.procs, res: m.Run()}
	for _, tp := range taps {
		out.ops += tp.ops
		out.memOps += tp.memOps
	}
	return m, out, taps, obs
}

func TestVerifySimRejectsBrokenRuns(t *testing.T) {
	s := figWeather(16).sims[6] // LimitLESS4, T_s = 50
	m, out, taps, obs := tapped(t, s)
	if bad := verifySim(s, m, out, taps, obs); len(bad) > 0 {
		t.Fatalf("healthy run rejected: %v", bad)
	}

	lost := *out
	lost.memOps++
	if bad := verifySim(s, m, &lost, taps, obs); len(bad) == 0 {
		t.Error("an op the machine never executed went unnoticed")
	}

	unfinished := append([]*tap(nil), taps...)
	unfinished[3] = &tap{}
	if bad := verifySim(s, m, out, unfinished, obs); len(bad) == 0 {
		t.Error("a program that did not finish went unnoticed")
	}

	// Leave one directory entry stuck mid-transaction.
	broken := false
	m.Nodes[1].MC.Dir().ForEach(func(_ directory.Addr, e *directory.Entry) {
		if !broken {
			e.Meta = directory.TransInProgress
			broken = true
		}
	})
	if !broken {
		t.Fatal("node 1 has no directory entries")
	}
	if bad := verifySim(s, m, out, taps, obs); len(bad) == 0 {
		t.Error("a directory entry stuck in Trans-In-Progress went unnoticed")
	}
}

func TestTapFeedsObserver(t *testing.T) {
	addr := machine.Block(0, 7)
	step := 0
	prog := proc.WorkloadFunc(func(uint64) (proc.Op, bool) {
		step++
		switch step {
		case 1:
			return proc.Op{Kind: proc.OpStore, Addr: addr, Value: 5}, true
		case 2:
			return proc.Op{Kind: proc.OpLoad, Addr: addr}, true
		}
		return proc.Op{}, false
	})
	obs := check.NewObserver()
	tp := &tap{inner: prog, obs: obs}
	tp.Next(0)
	tp.Next(5)  // the store of 5 committed
	tp.Next(42) // the load returned 42, which nobody wrote
	if len(obs.Violations()) == 0 {
		t.Error("a load of a value never written went unnoticed")
	}
	if tp.ops != 2 || tp.memOps != 2 || !tp.done {
		t.Errorf("tap counted ops=%d memOps=%d done=%v, want 2 2 true", tp.ops, tp.memOps, tp.done)
	}
}

func TestJobProblemsRejectsChangedStatistics(t *testing.T) {
	w, err := newWorkload("multigrid-p256", 16)
	if err != nil {
		t.Fatal(err)
	}
	j := runJob(w, plain)
	ref := j.results()
	if bad := jobProblems(&j, ref); len(bad) > 0 {
		t.Fatalf("a job differs from itself: %v", bad)
	}
	ref[0].Network.Flits++
	if bad := jobProblems(&j, ref); len(bad) == 0 {
		t.Error("changed statistics went unnoticed")
	}
	j.sims[0].failure = "deadlock"
	if bad := jobProblems(&j, j.results()); len(bad) == 0 {
		t.Error("a failed simulation went unnoticed")
	}
}

func TestFigOrderingsRejectBrokenSweeps(t *testing.T) {
	good := map[string]int64{
		"Dir1NB": 300, "Dir2NB": 250, "Dir4NB": 200, "Full-Map": 100, "Dir4NB (optimized)": 102,
		"LimitLESS4 Ts=25": 110, "LimitLESS4 Ts=50": 120, "LimitLESS4 Ts=100": 130, "LimitLESS4 Ts=150": 140,
		"LimitLESS1 Ts=50": 180, "LimitLESS2 Ts=50": 150,
	}
	if bad := figOrderings(good); len(bad) > 0 {
		t.Fatalf("a sweep with the paper's orderings was rejected: %v", bad)
	}
	for name, c := range map[string]map[string]int64{
		"fig8 more pointers slower": {"Dir4NB": 260},
		"fig8 full-map not fastest": {"Full-Map": 200, "Dir4NB (optimized)": 200},
		"fig8 optimized far off":    {"Dir4NB (optimized)": 120},
		"fig9 flat in T_s":          {"LimitLESS4 Ts=100": 120},
		"fig10 LimitLESS1 best":     {"LimitLESS1 Ts=50": 115},
	} {
		broken := map[string]int64{}
		for k, v := range good {
			broken[k] = v
		}
		for k, v := range c {
			broken[k] = v
		}
		if bad := figOrderings(broken); len(bad) == 0 {
			t.Errorf("%s: accepted %v", name, broken)
		}
	}
}

func TestWorkloadPropsRejectBrokenResults(t *testing.T) {
	mg, _ := newWorkload("multigrid-p256", 16)
	var r machine.Result
	r.Cycles = 1000
	if bad := mg.props([]machine.Result{r}, []machine.Result{r}); len(bad) > 0 {
		t.Fatalf("healthy multigrid rejected: %v", bad)
	}
	trapped := r
	trapped.Coherence.Traps = 1
	if bad := mg.props([]machine.Result{trapped}, []machine.Result{r}); len(bad) == 0 {
		t.Error("multigrid traps went unnoticed")
	}
	slower := r
	slower.Cycles++
	if bad := mg.props([]machine.Result{slower}, []machine.Result{r}); len(bad) == 0 {
		t.Error("multigrid slower than full-map went unnoticed")
	}

	sh, _ := newWorkload("weather-p1024-sharded", 64)
	if bad := sh.props([]machine.Result{r}, []machine.Result{r}); len(bad) > 0 {
		t.Fatalf("identical shard counts rejected: %v", bad)
	}
	if bad := sh.props([]machine.Result{r}, []machine.Result{slower}); len(bad) == 0 {
		t.Error("a shard-count dependence went unnoticed")
	}
}
