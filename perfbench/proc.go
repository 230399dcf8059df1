package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// statusKB reads one "Key:   123 kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// procCPU is the CPU time and minor faults of a process so far.
type procCPU struct {
	cpu    time.Duration
	minflt float64
}

// readProcCPU parses utime, stime and minflt from /proc/<pid>/stat.
func readProcCPU(pid int) (procCPU, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procCPU{}, err
	}
	// Fields after the parenthesised command name, starting at
	// field 3 (state): minflt is field 10, utime 14, stime 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procCPU{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	field := func(n int) float64 {
		v, _ := strconv.ParseFloat(f[n-3], 64)
		return v
	}
	ticks := field(14) + field(15)
	return procCPU{cpu: time.Duration(ticks * float64(time.Second) / clockTicks), minflt: field(10)}, nil
}

// selfUsage is this process's CPU time and minor faults.
func selfUsage() procCPU {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procCPU{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procCPU{cpu: cpu, minflt: float64(ru.Minflt)}
}

// rssSampler tracks the peak resident set of a process by polling
// VmRSS, for processes whose VmHWM also counts work that is not
// serving (this one generates and checks inputs too).
type rssSampler struct {
	pid  int
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak float64 // kB, since start
	last float64 // kB, since the last takePeak
}

func startRSSSampler(pid int, every time.Duration) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	kb, err := statusKB(s.pid, "VmRSS")
	if err != nil {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, kb)
	s.last = max(s.last, kb)
	s.mu.Unlock()
}

// takePeak returns the peak in MB since the previous call and starts
// a new interval.
func (s *rssSampler) takePeak() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.last
	s.last = 0
	return p / 1024
}

// finish stops sampling and returns the peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak / 1024
}

// syncFile flushes a freshly written input to disk, so its writeback
// does not compete with the measured window.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
