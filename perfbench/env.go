package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// environment is recorded with every run, so a disturbed run can be told
// apart from a slow program.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPUModel   string  `json:"cpu_model"`
	StealShare float64 `json:"steal_share"`
	LateMs     float64 `json:"loadgen_late_ms"`
	RefLoopMs  float64 `json:"ref_loop_ms"`
}

func currentEnvironment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// refLoopMs times a fixed loop that runs no program code: random reads
// from a 4 MiB table mixed with integer and float arithmetic, the median of
// five runs. Stolen time does not show every slowdown of a shared host
// (a busy sibling hyperthread, a lower clock); this does, so runs on a
// slower machine can be told apart from a slower program.
func refLoopMs() float64 {
	table := make([]uint32, 1<<20)
	for i := range table {
		table[i] = uint32(i * 2654435761)
	}
	var xs []float64
	var sum float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += float64(table[x&(1<<20-1)]) * 0x1p-32
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	if sum < 0 { // never true; keeps the loop from being optimised away
		xs[0] = sum
	}
	return median(xs)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the steal
// column and the sum of the first eight columns (user through steal).
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseInt(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// processCPU is the CPU time of the whole process, every thread, user
// and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's current resident set size.
func residentBytes() int64 {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Split(bufio.ScanWords)
	sc.Scan() // total program size
	if !sc.Scan() {
		return 0
	}
	pages, _ := strconv.ParseInt(sc.Text(), 10, 64)
	return pages * int64(os.Getpagesize())
}

// phase measures the timed part of a run: process CPU time, stolen CPU
// share and peak resident memory, sampled every 10 ms.
type phase struct {
	cpu0         time.Duration
	steal0, tot0 int64

	stop chan struct{}
	wg   sync.WaitGroup
	peak int64 // written by the sampler, read after wg.Wait
}

// beginPhase collects the garbage set-up left behind and returns its
// memory to the OS, so the peak reflects the timed work, then starts
// measuring.
func beginPhase() *phase {
	runtime.GC()
	debug.FreeOSMemory()
	p := &phase{stop: make(chan struct{}), peak: residentBytes()}
	p.steal0, p.tot0 = cpuTicks()
	p.cpu0 = processCPU()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				if rss := residentBytes(); rss > p.peak {
					p.peak = rss
				}
			}
		}
	}()
	return p
}

// phaseStats is what a phase measured.
type phaseStats struct {
	cpu        time.Duration
	stealShare float64
	peakRSSMB  float64
}

func (p *phase) end() phaseStats {
	cpu := processCPU() - p.cpu0
	steal, tot := cpuTicks()
	close(p.stop)
	p.wg.Wait()
	if rss := residentBytes(); rss > p.peak {
		p.peak = rss
	}
	st := phaseStats{cpu: cpu, peakRSSMB: float64(p.peak) / (1 << 20)}
	if tot > p.tot0 {
		st.stealShare = float64(steal-p.steal0) / float64(tot-p.tot0)
	}
	return st
}
