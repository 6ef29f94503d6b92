package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// stealTicks returns the host's cumulative stolen CPU time (all CPUs) from
// /proc/stat, in clock ticks, and false where that file is unavailable.
func stealTicks() (uint64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	// "cpu user nice system idle iowait irq softirq steal ..."
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(fields[8], 10, 64)
	return v, err == nil
}

// tickMs is the length of a /proc/stat clock tick (USER_HZ = 100 on Linux).
const tickMs = 10

// calibrate times a fixed memory-bound reference loop: a pointer chase
// through one 4 MiB random cycle. Its work never changes, so a slower
// reading means a slower or busier host, not a slower simulator.
func calibrate() time.Duration {
	const n = 1 << 20
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle with a fixed LCG gives a single cycle through all
	// n slots.
	x := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	t0 := time.Now()
	p := uint32(0)
	for k := 0; k < n/2; k++ {
		p = next[p]
	}
	d := time.Since(t0)
	calibSink += p
	next = nil
	runtime.GC()
	debug.FreeOSMemory()
	return d
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint32

// runtimeCounters is a snapshot of the Go runtime's allocation and GC
// totals.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU                        float64 // seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	c := runtimeCounters{allocs: u(0), allocBytes: u(1), gcCycles: u(2)}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[3].Value.Float64()
	}
	return c
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs - o.allocs, c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles, c.gcCPU - o.gcCPU}
}
