package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"panda/internal/obs"
)

// File-system magic numbers (statfs f_type) this benchmark names.
var fsNames = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x01021994: "tmpfs",
	0x858458F6: "ramfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// memoryFS are the file systems where fsync is free and the storage
// layer would vanish from the measurement.
var memoryFS = map[string]bool{"tmpfs": true, "ramfs": true}

// environment records the host facts a reader needs to compare runs,
// and refuses a memory-backed data directory.
func environment(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	fs, ok := fsNames[int64(st.Type)]
	if !ok {
		fs = fmt.Sprintf("0x%x", st.Type)
	}
	if memoryFS[fs] {
		return "", fmt.Errorf("data dir %s is on %s: fsync would be free and the storage layer would not be measured; run from a disk-backed checkout", dir, fs)
	}
	l3 := "unknown"
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		l3 = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s L3=%s datadir_fs=%s; reads are served from the OS page cache",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), l3, fs), nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuMeter sums process CPU over the stretches in which at least one
// collective is in flight, so the benchmark's own pattern generation
// and checking between ops stays out of it.
type cpuMeter struct {
	mu       sync.Mutex
	inflight int
	since    float64
	total    float64
}

func (c *cpuMeter) enter() {
	c.mu.Lock()
	if c.inflight == 0 {
		c.since = cpuSeconds()
	}
	c.inflight++
	c.mu.Unlock()
}

func (c *cpuMeter) exit() {
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.total += cpuSeconds() - c.since
	}
	c.mu.Unlock()
}

func (c *cpuMeter) seconds() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// tracer is the benchmark's own span log: one span around each call it
// makes into a layer's public functions. A nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []obs.ChromeEvent
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span; seq is the call's op index in its session, or
// -1 for calls outside any op.
func (t *tracer) add(layer, name string, tid int, start time.Time, dur time.Duration, seq int) {
	if t == nil {
		return
	}
	ev := obs.ChromeEvent{
		Name: name,
		Cat:  layer,
		Ph:   "X",
		Ts:   float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		Dur:  float64(dur.Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  tid,
	}
	if seq >= 0 {
		ev.Args = map[string]any{"op": seq}
	}
	t.mu.Lock()
	t.spans = append(t.spans, ev)
	t.mu.Unlock()
}

// write saves the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(obs.ChromeTrace{TraceEvents: t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
