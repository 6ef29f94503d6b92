package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"limitless/internal/check"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/proc"
)

// runMode says how much the benchmark watches a simulation.
type runMode int

const (
	// plain runs the program exactly as a user would: no wrappers.
	plain runMode = iota
	// traced wraps every processor's program in a tap that counts the ops
	// handed out and times each Next call.
	traced
	// verified wraps every program in a tap that feeds a coherence
	// observer, and checks the machine's end state after the run.
	verified
)

// The phases of one simulation, in order, as the benchmark times them.
const (
	phaseGen     = iota // constructing the per-processor programs
	phaseBuild          // machine.New
	phaseBind           // binding the programs to the processors
	phaseRun            // Machine.Run
	phaseChecks         // output checks (verified mode) and footprint reads
	phaseRelease        // Machine.Release
	numPhases
)

var phaseNames = [numPhases]string{"workload.gen", "machine.build", "machine.bind", "machine.run", "checks", "machine.release"}

// simResult is one simulation's statistics and where its host time went.
type simResult struct {
	name  string
	procs int
	res   machine.Result
	// marks[k] is when phase k began; marks[numPhases] is when the last
	// one ended.
	marks [numPhases + 1]time.Time
	// Set in traced and verified modes only.
	ops, memOps uint64        // ops handed out, and the loads/stores/RMWs among them
	nextTime    time.Duration // time inside the programs' Next (traced mode)
	dirBytes    int           // measured directory storage at the end of the run
	dirEntries  int
	// problems lists failed output checks (verified mode), and failure the
	// panic of a simulation that did not finish.
	problems []string
	failure  string
}

// phase returns the host time of phase k.
func (r *simResult) phase(k int) time.Duration { return r.marks[k+1].Sub(r.marks[k]) }

// setup is the host time the simulation spent before its first cycle.
func (r *simResult) setup() time.Duration { return r.marks[phaseRun].Sub(r.marks[phaseGen]) }

// tap wraps one processor's program. It always counts ops; traced taps
// also time Next, and verifying taps report every committed load and store
// to a coherence observer.
type tap struct {
	inner proc.Workload
	node  mesh.NodeID
	timed bool
	obs   *check.Observer

	last        proc.Op
	hasLast     bool
	done        bool
	ops, memOps uint64
	nextTime    time.Duration
}

// Next implements proc.Workload. The processor calls Next with the result
// of the previous op as soon as that op commits, so the observer sees
// every node's loads and stores in commit order.
func (t *tap) Next(prev uint64) (proc.Op, bool) {
	if t.obs != nil && t.hasLast {
		switch op := t.last; op.Kind {
		case proc.OpLoad:
			t.obs.NoteRead(t.node, op.Addr, prev)
		case proc.OpStore:
			t.obs.NoteWrite(t.node, op.Addr, op.Value)
		case proc.OpRMW:
			t.obs.NoteRead(t.node, op.Addr, prev)
			t.obs.NoteWrite(t.node, op.Addr, op.Modify(prev))
		}
	}
	var op proc.Op
	var ok bool
	if t.timed {
		s := time.Now()
		op, ok = t.inner.Next(prev)
		t.nextTime += time.Since(s)
	} else {
		op, ok = t.inner.Next(prev)
	}
	t.last, t.hasLast = op, ok
	if !ok {
		t.done = true
		return op, ok
	}
	t.ops++
	if op.Kind != proc.OpCompute {
		t.memOps++
	}
	return op, ok
}

// runSim builds, runs and releases one simulation, timing each call into
// the machine from outside. A panic (a deadlocked or broken run) is
// returned as the result's failure.
func runSim(s simSpec, mode runMode) (out simResult) {
	out.name, out.procs = s.name, s.procs
	defer func() {
		if r := recover(); r != nil {
			out.failure = fmt.Sprintf("%s: %v", s.name, r)
		}
	}()
	out.marks[phaseGen] = time.Now()
	progs := s.gen()
	out.marks[phaseBuild] = time.Now()
	cfg := s.config()
	if mode == verified {
		cfg.ShardWorkers = 1
	}
	m := machine.New(cfg)
	out.marks[phaseBind] = time.Now()
	var taps []*tap
	var obs *check.Observer
	if mode == verified {
		obs = check.NewObserver()
	}
	for i, p := range progs {
		if mode != plain {
			t := &tap{inner: p, node: mesh.NodeID(i), timed: mode == traced, obs: obs}
			taps = append(taps, t)
			p = t
		}
		m.SetWorkload(mesh.NodeID(i), 0, p)
	}
	out.marks[phaseRun] = time.Now()
	out.res = m.Run()
	out.marks[phaseChecks] = time.Now()
	if mode != plain {
		for _, t := range taps {
			out.ops += t.ops
			out.memOps += t.memOps
			out.nextTime += t.nextTime
		}
		dm := m.DirectoryMemory()
		out.dirBytes, out.dirEntries = dm.MeasuredBytes, dm.Entries
	}
	if mode == verified {
		out.problems = verifySim(s, m, &out, taps, obs)
	}
	out.marks[phaseRelease] = time.Now()
	m.Release()
	out.marks[numPhases] = time.Now()
	return out
}

// verifySim checks one finished simulation: it ran to completion without
// recorded violations, the machine executed exactly the ops the programs
// handed out, the end state is coherent, and every load returned a value
// the observer allows.
func verifySim(s simSpec, m *machine.Machine, out *simResult, taps []*tap, obs *check.Observer) []string {
	var bad []string
	add := func(format string, args ...any) {
		bad = append(bad, s.name+": "+fmt.Sprintf(format, args...))
	}
	if d := m.Diagnostic(); d != nil {
		add("halted: %s", d)
	}
	if v := out.res.Violations; v != 0 {
		add("%d protocol violations recorded", v)
	}
	for i, t := range taps {
		if !t.done || !m.Nodes[i].Proc.Done() {
			add("processor %d did not run its program to completion", i)
			break
		}
	}
	if got := out.res.Proc.Loads + out.res.Proc.Stores; got != out.memOps {
		add("machine reports %d loads+stores, programs handed out %d", got, out.memOps)
	}
	if got := out.res.Proc.Instructions; got != out.ops {
		add("machine reports %d instructions, programs handed out %d", got, out.ops)
	}
	if r, w := obs.Ops(); r+w < out.memOps {
		add("observer saw %d loads and stores, want at least %d", r+w, out.memOps)
	}
	for _, v := range limit(check.EndState(m), 5) {
		add("end state: %s", v)
	}
	for _, v := range limit(obs.Violations(), 5) {
		add("observer: %s", v)
	}
	return bad
}

func limit(lines []string, n int) []string {
	if len(lines) > n {
		return append(lines[:n:n], fmt.Sprintf("... and %d more", len(lines)-n))
	}
	return lines
}

// jobResult is one job: every simulation of the workload once.
type jobResult struct {
	sims  []simResult
	start time.Time
	wall  time.Duration
	cpu   time.Duration // process user+system CPU over the job
}

func (j *jobResult) cycles() float64 {
	var c float64
	for i := range j.sims {
		c += float64(j.sims[i].res.Cycles)
	}
	return c
}

func (j *jobResult) setup() time.Duration {
	var d time.Duration
	for i := range j.sims {
		d += j.sims[i].setup()
	}
	return d
}

// failures lists the simulations of the job that did not finish.
func (j *jobResult) failures() []string {
	var out []string
	for i := range j.sims {
		if f := j.sims[i].failure; f != "" {
			out = append(out, f)
		}
	}
	return out
}

// results returns the job's statistics in simulation order.
func (j *jobResult) results() []machine.Result {
	out := make([]machine.Result, len(j.sims))
	for i := range j.sims {
		out[i] = j.sims[i].res
	}
	return out
}

// runSims runs specs on up to workers goroutines, the way SweepN fans a
// sweep out, and returns the results in spec order.
func runSims(specs []simSpec, workers int, mode runMode) []simResult {
	out := make([]simResult, len(specs))
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers && w < len(specs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = runSim(specs[i], mode)
			}
		}()
	}
	wg.Wait()
	return out
}

// runJob runs one job of the workload and times it.
func runJob(w *benchWorkload, mode runMode) jobResult {
	c0 := processCPU()
	t0 := time.Now()
	sims := runSims(w.sims, w.workers, mode)
	return jobResult{sims: sims, start: t0, wall: time.Since(t0), cpu: processCPU() - c0}
}

// processCPU returns the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's resident-memory high-water mark in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}
