package main

import (
	"fmt"
	"math"

	"limitless/internal/coherence"
	"limitless/internal/machine"
	"limitless/internal/proc"
	"limitless/internal/sim"
	"limitless/internal/workload"
)

// simSpec is one simulation of a job: a machine configuration and the
// generator that builds one program per processor.
type simSpec struct {
	name     string
	procs    int
	scheme   coherence.Scheme
	pointers int
	ts       sim.Time // T_s; 0 keeps the default
	shards   int      // 0 = sequential engine
	workers  int      // shard workers (sharded engine only)
	gen      func() []proc.Workload
}

// config builds the machine configuration, mirroring the public facade's
// defaults (square mesh, one context, default timing).
func (s simSpec) config() machine.Config {
	side := int(math.Sqrt(float64(s.procs)))
	if side*side != s.procs {
		panic(fmt.Sprintf("simbench: %d processors is not a square mesh", s.procs))
	}
	params := coherence.DefaultParams(s.procs)
	params.Scheme = s.scheme
	if s.pointers > 0 {
		params.Pointers = s.pointers
	}
	if s.ts > 0 {
		params.Timing.TrapService = s.ts
	}
	return machine.Config{Width: side, Height: side, Contexts: 1, Params: params,
		Shards: s.shards, ShardWorkers: s.workers}
}

// benchWorkload is one named workload: the simulations that make up a job,
// how many of them run at once, the extra simulations the output checks
// compare against, and the property checks over a verified job.
type benchWorkload struct {
	name string
	sims []simSpec
	// workers is the number of simulations of a job run concurrently.
	workers int
	// refs are simulations run only while checking outputs (never timed).
	refs []simSpec
	// props checks the workload's paper-derived properties over the job's
	// results and the reference results; it returns one line per failure.
	props func(job, refs []machine.Result) []string
}

func weatherGen(procs int, optimized bool) func() []proc.Workload {
	return func() []proc.Workload {
		cfg := workload.DefaultWeather(procs)
		cfg.OptimizeHot = optimized
		return workload.Weather(cfg)
	}
}

func multigridGen(procs int) func() []proc.Workload {
	return func() []proc.Workload { return workload.Multigrid(workload.DefaultMultigrid(procs)) }
}

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"fig-weather-p64", "multigrid-p256", "weather-p1024-sharded"}

// newWorkload returns the named workload at the given machine size; the
// benchmark runs each at its nominal size, the tests at reduced ones.
func newWorkload(name string, procs int) (*benchWorkload, error) {
	switch name {
	case "fig-weather-p64":
		return figWeather(procs), nil
	case "multigrid-p256":
		return multigridLL4(procs), nil
	case "weather-p1024-sharded":
		return shardedWeather(procs, 4, 16), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// nominalProcs is each workload's machine size in the benchmark.
var nominalProcs = map[string]int{
	"fig-weather-p64":       64,
	"multigrid-p256":        256,
	"weather-p1024-sharded": 1024,
}

// figWeather is the Figure 8–10 sweep: eleven Weather simulations on two
// workers, as cmd/figures runs them through SweepN.
func figWeather(procs int) *benchWorkload {
	w := weatherGen(procs, false)
	ll := func(ptrs int, ts sim.Time) simSpec {
		return simSpec{name: fmt.Sprintf("LimitLESS%d Ts=%d", ptrs, ts), procs: procs,
			scheme: coherence.LimitLESS, pointers: ptrs, ts: ts, gen: w}
	}
	sims := []simSpec{
		{name: "Dir1NB", procs: procs, scheme: coherence.LimitedNB, pointers: 1, gen: w},
		{name: "Dir2NB", procs: procs, scheme: coherence.LimitedNB, pointers: 2, gen: w},
		{name: "Dir4NB", procs: procs, scheme: coherence.LimitedNB, pointers: 4, gen: w},
		{name: "Full-Map", procs: procs, scheme: coherence.FullMap, gen: w},
		{name: "Dir4NB (optimized)", procs: procs, scheme: coherence.LimitedNB, pointers: 4, gen: weatherGen(procs, true)},
		ll(4, 25), ll(4, 50), ll(4, 100), ll(4, 150),
		ll(1, 50), ll(2, 50),
	}
	return &benchWorkload{
		name:    "fig-weather-p64",
		sims:    sims,
		workers: 2,
		props: func(job, _ []machine.Result) []string {
			cycles := map[string]int64{}
			for i, s := range sims {
				cycles[s.name] = int64(job[i].Cycles)
			}
			return figOrderings(cycles)
		},
	}
}

// multigridLL4 is one sequential LimitLESS4 multigrid simulation; its
// full-map twin runs only while checking outputs.
func multigridLL4(procs int) *benchWorkload {
	g := multigridGen(procs)
	return &benchWorkload{
		name: "multigrid-p256",
		sims: []simSpec{{name: "LimitLESS4", procs: procs, scheme: coherence.LimitLESS, pointers: 4, gen: g}},
		refs: []simSpec{{name: "Full-Map", procs: procs, scheme: coherence.FullMap, gen: g}},
		props: func(job, refs []machine.Result) []string {
			var bad []string
			if t := job[0].Coherence.Traps; t != 0 {
				bad = append(bad, fmt.Sprintf("multigrid LimitLESS4 took %d traps, want 0 (worker-sets never exceed four pointers)", t))
			}
			if job[0].Cycles != refs[0].Cycles {
				bad = append(bad, fmt.Sprintf("multigrid LimitLESS4 ran %d cycles, full-map %d: want equal", job[0].Cycles, refs[0].Cycles))
			}
			return bad
		},
	}
}

// shardedWeather is one LimitLESS4 Weather simulation on the windowed
// sharded engine; the same simulation at another shard count runs only
// while checking outputs.
func shardedWeather(procs, shards, checkShards int) *benchWorkload {
	spec := simSpec{name: fmt.Sprintf("LimitLESS4 shards=%d", shards), procs: procs,
		scheme: coherence.LimitLESS, pointers: 4, shards: shards, workers: 2, gen: weatherGen(procs, false)}
	ref := spec
	ref.name = fmt.Sprintf("LimitLESS4 shards=%d", checkShards)
	ref.shards = checkShards
	return &benchWorkload{
		name: "weather-p1024-sharded",
		sims: []simSpec{spec},
		refs: []simSpec{ref},
		props: func(job, refs []machine.Result) []string {
			if job[0] != refs[0] {
				return []string{fmt.Sprintf("sharded Weather differs between %d and %d shards:\n  %+v\n  %+v",
					shards, checkShards, job[0], refs[0])}
			}
			return nil
		},
	}
}

// figOrderings checks the orderings of Figures 8, 9 and 10 over one sweep's
// cycle counts, keyed by bar name.
func figOrderings(c map[string]int64) []string {
	var bad []string
	// want checks a strictly (or weakly) descending chain of bars.
	want := func(fig string, strict bool, names ...string) {
		for i := 1; i < len(names); i++ {
			a, b := c[names[i-1]], c[names[i]]
			if a < b || (strict && a == b) {
				rel := ">="
				if strict {
					rel = ">"
				}
				bad = append(bad, fmt.Sprintf("%s: want %s (%d) %s %s (%d)", fig, names[i-1], a, rel, names[i], b))
			}
		}
	}
	want("fig8", false, "Dir1NB", "Dir2NB", "Dir4NB")
	want("fig8", true, "Dir4NB", "Full-Map")
	if r := float64(c["Dir4NB (optimized)"]) / float64(c["Full-Map"]); r > 1.05 || r < 0.95 {
		bad = append(bad, fmt.Sprintf("fig8: optimized Dir4NB / full-map = %.3f, want within 5%%", r))
	}
	want("fig9", true, "LimitLESS4 Ts=150", "LimitLESS4 Ts=100", "LimitLESS4 Ts=50", "LimitLESS4 Ts=25")
	want("fig10", true, "LimitLESS1 Ts=50", "LimitLESS2 Ts=50", "LimitLESS4 Ts=50", "Full-Map")
	return bad
}
