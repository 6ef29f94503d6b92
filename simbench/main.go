// Command simbench is the simulator's benchmark. One run executes a named
// workload as a closed loop of jobs for a fixed number of seconds, checks
// every job's output, and prints one JSON line of metrics:
//
//	simbench --workload fig-weather-p64 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host throughput, job
// time, set-up time, CPU per job, peak memory). With --trace 1 it repeats
// the jobs with a CPU profile and per-processor program taps on, and
// reports per-layer metrics instead. --stability N runs every workload N
// times in child processes and prints each end-to-end metric's median,
// quartiles and max/min ratio. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"limitless/internal/machine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "run seed; recorded only, since the workload generators are deterministic and take no seed")
	seconds := fs.Float64("seconds", 20, "seconds of jobs to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spansDir := fs.String("spans-dir", "", "directory to write the traced run's spans to (traced runs only; empty: keep them in memory)")
	stability := fs.Int("stability", 0, "run each workload (or --workload alone) this many times in child processes and print the spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *stability > 0 {
		names := workloadNames
		if *name != "" {
			names = []string{*name}
		}
		if err := stabilityCmd(names, *stability, *seconds, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	w, err := newWorkload(*name, nominalProcs[*name])
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "simbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "simbench: --seconds must be positive")
		return 2
	}
	opts := options{seconds: *seconds, trace: *trace == 1, seed: *seed, spansDir: *spansDir}
	rep, err := bench(w, opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type options struct {
	seconds  float64
	trace    bool
	seed     int64
	spansDir string
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minJobs is the fewest jobs a timed loop runs, however short --seconds is.
const minJobs = 3

// bench runs one benchmark run of w.
func bench(w *benchWorkload, o options, stderr io.Writer) (*report, error) {
	steal0, stealOK := stealTicks()
	calib0 := calibrate()

	// The warm-up job fills the machine's pools and the runtime's lazy
	// state before anything is timed, and its statistics are the
	// reference every later job of the run must reproduce exactly.
	warm := runJob(w, plain)
	if f := warm.failures(); len(f) > 0 {
		return nil, fmt.Errorf("warm-up job failed: %s", strings.Join(f, "; "))
	}
	ref := warm.results()
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	loop := func(mode runMode, budget time.Duration) []jobResult {
		var jobs []jobResult
		start := time.Now()
		for len(jobs) < minJobs || time.Since(start) < budget {
			j := runJob(w, mode)
			rep.Attempted++
			if bad := jobProblems(&j, ref); len(bad) > 0 {
				rep.Failed++
				problems = append(problems, bad...)
			}
			jobs = append(jobs, j)
		}
		return jobs
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	rt0 := readRuntime()
	plainJobs := loop(plain, budget)
	rt := readRuntime().sub(rt0)
	rss := peakRSS()

	var tracedJobs []jobResult
	var prof bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		tracedJobs = loop(traced, budget)
		pprof.StopCPUProfile()
	}
	steal1, _ := stealTicks()
	calib1 := calibrate()
	stealMs := float64(steal1-steal0) * tickMs
	if !stealOK {
		stealMs = 0
	}
	calibMs := (calib0 + calib1).Seconds() * 1000 / 2

	problems = append(problems, verify(w, ref)...)
	if len(problems) > 0 {
		rep.Correct = false
		for _, p := range limit(problems, 20) {
			fmt.Fprintln(stderr, "check failed:", p)
		}
	}
	fmt.Fprintf(stderr, "simbench: %s seed=%d jobs=%d failed=%d host.steal_ms=%.0f host.calib_ms=%.2f (before %.2f, after %.2f)\n",
		w.name, o.seed, rep.Attempted, rep.Failed, stealMs, calibMs,
		calib0.Seconds()*1000, calib1.Seconds()*1000)

	if !o.trace {
		endToEnd(rep.Metrics, plainJobs, rss)
		return rep, nil
	}
	folds, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	perLayer(rep.Metrics, plainJobs, tracedJobs, rt, folds)
	set(rep.Metrics, "host.steal_ms", stealMs, "ms")
	set(rep.Metrics, "host.calib_ms", calibMs, "ms")
	if o.spansDir != "" {
		if err := writeSpans(o.spansDir, w.name, o.seed, tracedJobs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// jobProblems checks one timed job: every simulation finished and
// reproduced the reference statistics exactly.
func jobProblems(j *jobResult, ref []machine.Result) []string {
	bad := j.failures()
	for i := range j.sims {
		if j.sims[i].failure == "" && j.sims[i].res != ref[i] {
			bad = append(bad, fmt.Sprintf("simulation %d: statistics differ from the run's first job", i))
		}
	}
	return bad
}

// verify runs one job with every output check on, outside the timed loops,
// plus the workload's reference simulations, and returns the failed checks.
// A verified sharded simulation runs its shards on one worker: the
// observer's lock would otherwise make two workers contend on every op,
// and results do not depend on the worker count.
func verify(w *benchWorkload, ref []machine.Result) []string {
	job := jobResult{sims: runSims(w.sims, w.workers, verified)}
	refs := jobResult{sims: runSims(w.refs, 1, plain)}
	bad := append(job.failures(), refs.failures()...)
	for _, s := range job.sims {
		bad = append(bad, s.problems...)
	}
	if len(bad) > 0 {
		return bad
	}
	for i, r := range job.results() {
		if r != ref[i] {
			bad = append(bad, fmt.Sprintf("%s: verified run's statistics differ from the timed runs'", w.sims[i].name))
		}
	}
	return append(bad, w.props(job.results(), refs.results())...)
}

func set(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// medianOf returns the median over jobs of f.
func medianOf(jobs []jobResult, f func(j *jobResult) float64) float64 {
	xs := make([]float64, len(jobs))
	for i := range jobs {
		xs[i] = f(&jobs[i])
	}
	return median(xs)
}

// endToEnd sets the end-to-end metrics from the untraced jobs: medians over
// jobs, except peak memory.
func endToEnd(m map[string]metric, jobs []jobResult, rss int64) {
	set(m, "simcycles_per_s", medianOf(jobs, func(j *jobResult) float64 { return j.cycles() / j.wall.Seconds() }), "cycles/s")
	set(m, "job_s_p50", medianOf(jobs, func(j *jobResult) float64 { return j.wall.Seconds() }), "s")
	set(m, "setup_s", medianOf(jobs, func(j *jobResult) float64 { return j.setup().Seconds() }), "s")
	set(m, "cpu_s_per_job", medianOf(jobs, func(j *jobResult) float64 { return j.cpu.Seconds() }), "s")
	set(m, "peak_rss_mb", float64(rss)/(1<<20), "MB")
}

// perLayer sets the per-layer metrics. Simulated counters are per job
// (every job repeats them exactly); host times are medians over jobs, from
// the untraced jobs where the taps would distort them and from the traced
// jobs otherwise; self times are the CPU profile's folds per traced job.
func perLayer(m map[string]metric, plainJobs, tracedJobs []jobResult, rt runtimeCounters, folds map[string]int64) {
	j := &tracedJobs[0]
	var (
		events, instr, busy, procCycles, hits, refs    uint64
		msgs, invs, retries, overflows, evictions      uint64
		flits, packets, latency, traps, remote, cycles uint64
		ops                                            uint64
		dirBytes, dirEntries, vectorsPeak              int
	)
	for i := range j.sims {
		s := &j.sims[i]
		r := &s.res
		events += r.Events
		instr += r.Proc.Instructions
		busy += uint64(r.Proc.BusyCycles)
		procCycles += uint64(r.Cycles) * uint64(s.procs)
		hits += r.Misses.Hits
		refs += r.Misses.Hits + r.Misses.LocalMisses + r.Misses.RemoteMisses
		msgs += r.Coherence.TotalSent()
		invs += r.Coherence.InvalidationsSent
		retries += r.Coherence.Retries
		overflows += r.Coherence.PointerOverflows
		evictions += r.Coherence.Evictions
		flits += r.Network.Flits
		packets += r.Network.Packets
		latency += uint64(r.Network.TotalLatency)
		traps += r.Coherence.Traps
		remote += r.Misses.RemoteMisses
		cycles += uint64(r.Cycles)
		ops += s.ops
		dirBytes += s.dirBytes
		dirEntries += s.dirEntries
		vectorsPeak = max(vectorsPeak, r.SW.MaxResident)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	sumSims := func(f func(s *simResult) time.Duration) func(j *jobResult) float64 {
		return func(j *jobResult) float64 {
			var d time.Duration
			for i := range j.sims {
				d += f(&j.sims[i])
			}
			return ms(d)
		}
	}
	runMs := medianOf(plainJobs, sumSims(func(s *simResult) time.Duration { return s.phase(phaseRun) }))

	set(m, "sim.events", float64(events), "count")
	set(m, "sim.ns_per_event", runMs*1e6/float64(events), "ns")
	set(m, "proc.instructions", float64(instr), "count")
	set(m, "proc.utilization", ratio(busy, procCycles), "fraction")
	set(m, "workload.ops", float64(ops), "count")
	set(m, "workload.next_ms", medianOf(tracedJobs, sumSims(func(s *simResult) time.Duration { return s.nextTime })), "ms")
	set(m, "cache.hit_rate", ratio(hits, refs), "fraction")
	set(m, "coherence.messages", float64(msgs), "count")
	set(m, "coherence.invalidations", float64(invs), "count")
	set(m, "coherence.retries", float64(retries), "count")
	set(m, "directory.pointer_overflows", float64(overflows), "count")
	set(m, "directory.evictions", float64(evictions), "count")
	set(m, "directory.bytes_per_entry", ratio(uint64(dirBytes), uint64(dirEntries)), "B")
	set(m, "mesh.flits", float64(flits), "count")
	set(m, "mesh.latency_cycles", ratio(latency, packets), "cycles")
	set(m, "swdir.traps", float64(traps), "count")
	set(m, "swdir.software_fraction", ratio(traps, remote), "fraction")
	set(m, "swdir.vectors_peak", float64(vectorsPeak), "count")
	set(m, "machine.sim_cycles", float64(cycles), "cycles")
	set(m, "machine.build_ms", medianOf(plainJobs, sumSims(func(s *simResult) time.Duration { return s.phase(phaseBuild) })), "ms")
	set(m, "machine.run_ms", runMs, "ms")
	set(m, "machine.release_ms", medianOf(plainJobs, sumSims(func(s *simResult) time.Duration { return s.phase(phaseRelease) })), "ms")

	n := float64(len(plainJobs))
	set(m, "runtime.allocs_per_job", float64(rt.allocs)/n, "count")
	set(m, "runtime.alloc_mb_per_job", float64(rt.allocBytes)/(1<<20)/n, "MB")
	set(m, "runtime.gc_cycles", float64(rt.gcCycles)/n, "count")
	set(m, "runtime.gc_cpu_ms", rt.gcCPU*1000/n, "ms")

	perJob := float64(len(tracedJobs))
	for _, mod := range append(append([]string(nil), modules...), "runtime", "other") {
		set(m, mod+".self_ms", float64(folds[mod])/1e6/perJob, "ms")
	}
	plainWall := medianOf(plainJobs, func(j *jobResult) float64 { return j.wall.Seconds() })
	tracedWall := medianOf(tracedJobs, func(j *jobResult) float64 { return j.wall.Seconds() })
	set(m, "trace.overhead_ms", (tracedWall-plainWall)*1000, "ms")
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // the job's span; 0 for a job
	Name   string  `json:"name"`
	Sim    string  `json:"sim,omitempty"`
	Start  float64 `json:"start_ms"` // since the first traced job began
	End    float64 `json:"end_ms"`
}

// writeSpans writes the traced jobs' spans, kept in memory while they ran,
// as one JSON file.
func writeSpans(dir, workload string, seed int64, jobs []jobResult) error {
	if len(jobs) == 0 {
		return nil
	}
	t0 := jobs[0].start
	at := func(t time.Time) float64 { return t.Sub(t0).Seconds() * 1000 }
	var spans []span
	for i := range jobs {
		j := &jobs[i]
		job := span{ID: len(spans) + 1, Name: "job", Start: at(j.start), End: at(j.start.Add(j.wall))}
		spans = append(spans, job)
		for k := range j.sims {
			s := &j.sims[k]
			for ph := 0; ph < numPhases; ph++ {
				spans = append(spans, span{ID: len(spans) + 1, Parent: job.ID, Name: phaseNames[ph],
					Sim: s.name, Start: at(s.marks[ph]), End: at(s.marks[ph+1])})
			}
		}
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
