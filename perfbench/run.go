package main

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"time"

	"panda/internal/core"
	"panda/internal/obs"
	"panda/internal/storage"
)

// report is everything one invocation measured and checked.
type report struct {
	traced            bool
	env               string
	attempted, failed int
	opErrors          []string
	teardown          []string
	checks            []string
	e2e, e2eTraced    []metric
	layers            []metric
}

// emitted is the metric set the last line carries.
func (r *report) emitted() []metric {
	if r.traced {
		return r.layers
	}
	return r.e2e
}

func (r *report) account(ph *phase) {
	for _, o := range ph.ops {
		r.attempted++
		if o.err != nil {
			r.failed++
			r.opErrors = append(r.opErrors, fmt.Sprintf("%s session %d op %d: %v", opName(o.write), o.sess, o.index, o.err))
		}
	}
}

// run executes one invocation: set-up, warm-up, the measured closed
// loop (then, traced, a second one plus the layer probes), and the
// post-run correctness gate. A non-nil error means the run failed.
func run(wl *workload, o runOpts) (*report, error) {
	envDesc, err := environment(o.work)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(wl, o)
	if err != nil {
		return nil, err
	}
	r.rep.env = envDesc
	defer r.teardown(false)

	setups, err := r.setups(nil)
	if err != nil {
		return r.rep, err
	}
	var tr *tracer
	var tracedSetups []setupTimes
	if o.trace {
		r.teardown(false)
		tr = newTracer()
		if tracedSetups, err = r.setups(tr); err != nil {
			return r.rep, err
		}
	}
	if err := r.warmup(); err != nil {
		return r.rep, err
	}
	// A traced run splits its time between an untraced and a traced
	// phase, so it takes no longer than an untraced one.
	phaseLen := o.seconds
	if o.trace {
		phaseLen /= 2
	}
	ph, err := r.measure(nil, phaseLen)
	r.rep.account(ph)
	if err != nil {
		return r.rep, err
	}
	r.rep.e2e = e2eMetrics(ph, setups)

	var tph *phase
	var before, after metricsSnap
	var dump *obs.ChromeTrace
	// seqBase[i] is session i's first op sequence number: the flight
	// recorder keys spans by it.
	seqBase := make([]int, len(r.sessions))
	if o.trace {
		bases := map[int]int{}
		for _, info := range r.daemon.Service().Sessions() {
			bases[info.ID] = info.SeqBase
		}
		for i, s := range r.sessions {
			seqBase[i] = bases[s.sess.ID()]
		}
		if before, err = scrapeMetrics(r.daemon.HTTPAddr()); err != nil {
			return r.rep, err
		}
		tph, err = r.measure(tr, phaseLen)
		r.rep.account(tph)
		if err != nil {
			return r.rep, err
		}
		r.rep.e2eTraced = e2eMetrics(tph, tracedSetups)
		if after, err = scrapeMetrics(r.daemon.HTTPAddr()); err != nil {
			return r.rep, err
		}
		if dump, err = fetchDump(r.daemon.HTTPAddr()); err != nil {
			return r.rep, err
		}
	}
	space, err := r.finish()
	if err != nil {
		return r.rep, err
	}
	if !o.trace {
		return r.rep, nil
	}

	// Layer probes run only now, with the daemon drained, so they never
	// share the machine with the workload.
	var ls []metric
	ls = append(ls, pandaLayer(tracedSetups)...)
	ls = append(ls, coreLayer(wl, tph, before, after, dump, seqBase)...)
	// Each probe runs under one span of the benchmark's own trace. The
	// in-process probe goes last: it leaves the largest heap behind.
	t := time.Now()
	ls = append(ls, r.arrayLayer(tph, before, after)...)
	tr.add("array", "CopyRegion probe", 0, t, time.Since(t), -1)
	t = time.Now()
	mpiMetrics, teardownErr, err := mpiLayer(tph, before, after)
	tr.add("mpi", "hub probe", 0, t, time.Since(t), -1)
	if teardownErr != nil {
		r.rep.teardown = append(r.rep.teardown, fmt.Sprintf("relay probe hub: %v", teardownErr))
	}
	if err != nil {
		return r.rep, err
	}
	ls = append(ls, mpiMetrics...)
	ls = append(ls, metric{name: "mpi.teardown_errors", value: float64(len(r.rep.teardown)), unit: "count"})
	t = time.Now()
	st, err := r.storageProbe()
	tr.add("storage", "OSDisk probe", 0, t, time.Since(t), -1)
	if err != nil {
		return r.rep, err
	}
	ls = append(ls, st...)
	t = time.Now()
	inproc, err := r.inprocProbe()
	tr.add("core", "RunReal probe", 0, t, time.Since(t), -1)
	if err != nil {
		return r.rep, err
	}
	ls = append(ls, inproc...)
	ls = append(ls, metric{name: "storage.space_per_user_byte", value: space, unit: "ratio"})
	r.rep.layers = ls

	spans := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.json", wl.name, o.seed))
	if err := tr.write(spans); err != nil {
		return r.rep, err
	}
	r.rep.checks = append(r.rep.checks, "benchmark spans written to "+spans)
	return r.rep, nil
}

// e2eMetrics derives the end-to-end metrics of one phase. Throughput
// and percentiles are medians over the phase's windows; the op rate and
// CPU per byte are over the whole phase (a 1 s op makes a per-window
// rate too coarse). The p99s and the op rate are reported only: they
// need tenants-small's thousands of ops, and that workload is not
// gated (see workloads).
func e2eMetrics(ph *phase, setups []setupTimes) []metric {
	var totals []float64
	for _, s := range setups {
		totals = append(totals, s.total.Seconds())
	}
	var wmbs, rmbs, w50, r50, w99, r99 []float64
	var nw, nr int
	var moved int64
	for _, ops := range ph.windows() {
		ws, wb := durations(ops, true)
		rs, rb := durations(ops, false)
		nw, nr, moved = nw+len(ws), nr+len(rs), moved+wb+rb
		if len(ws) > 0 {
			wmbs = append(wmbs, mbs(wb, ws))
			w50 = append(w50, ms(percentile(ws, 50)))
			w99 = append(w99, ms(percentile(ws, 99)))
		}
		if len(rs) > 0 {
			rmbs = append(rmbs, mbs(rb, rs))
			r50 = append(r50, ms(percentile(rs, 50)))
			r99 = append(r99, ms(percentile(rs, 99)))
		}
	}
	out := []metric{
		{name: "setup_s", value: median(totals), unit: "s", n: len(totals)},
		windowed("write_mbs", "MB/s", wmbs, nw),
		windowed("read_mbs", "MB/s", rmbs, nr),
		windowed("write_p50_ms", "ms", w50, nw),
		windowed("read_p50_ms", "ms", r50, nr),
		reportOnly(windowed("write_p99_ms", "ms", w99, nw)),
		reportOnly(windowed("read_p99_ms", "ms", r99, nr)),
		{name: "ops_per_s", value: float64(nw+nr) / ph.end.Sub(ph.start).Seconds(), unit: "1/s", n: nw + nr, reportOnly: true},
	}
	if moved > 0 {
		out = append(out, metric{name: "cpu_s_per_gb", value: ph.cpu.seconds() / (float64(moved) / 1e9), unit: "s/GB"})
	} else {
		out = append(out, metric{name: "cpu_s_per_gb", unit: "s/GB", why: "no bytes moved"})
	}
	return append(out, metric{name: "peak_rss_mb", value: peakRSSMB(), unit: "MiB"})
}

// windowed is the median of per-window values; n counts the ops behind
// them.
func windowed(name, unit string, xs []float64, n int) metric {
	if len(xs) == 0 {
		return metric{name: name, unit: unit, why: "no successful ops of this kind"}
	}
	return metric{name: name, value: median(xs), unit: unit, n: n}
}

func reportOnly(m metric) metric {
	m.reportOnly = true
	return m
}

func mbs(bytes int64, ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(bytes) / sum.Seconds() / 1e6
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// finish is the post-run gate: detach, drain, then scrub the data dir
// in check mode and reload the catalog. Any issue fails the run. It
// returns the bytes on disk per live user byte.
func (r *runner) finish() (float64, error) {
	r.teardown(true)
	var onDisk int64
	var live int64
	for _, s := range r.sessions {
		for _, a := range s.arrays {
			live += a.spec.TotalBytes()
		}
	}
	var disks []storage.Disk
	for i := 0; i < 2; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("ion%d", i))
		err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			onDisk += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
		d, err := storage.NewOSDisk(dir)
		if err != nil {
			return 0, err
		}
		disks = append(disks, d)
	}
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		return 0, fmt.Errorf("scrub: %w", err)
	}
	for _, is := range rep.Issues {
		r.rep.checks = append(r.rep.checks, fmt.Sprintf("scrub issue: disk %d %s %s: %s", is.Disk, is.Name, is.Severity, is.Problem))
	}
	if len(rep.Issues) > 0 {
		return 0, fmt.Errorf("scrub found %d issue(s) after drain", len(rep.Issues))
	}
	r.rep.checks = append(r.rep.checks, fmt.Sprintf("scrub: %d manifest(s) verified, 0 issues", rep.Manifests))
	cat, err := storage.LoadCatalog(disks[0])
	if err != nil {
		return 0, fmt.Errorf("catalog reload: %w", err)
	}
	for _, s := range r.sessions {
		for _, a := range s.arrays {
			e, ok := cat.Get(a.def.name)
			if !ok {
				return 0, fmt.Errorf("catalog reload: array %s missing", a.def.name)
			}
			spec, err := core.DecodeSpec(e.Spec)
			if err != nil {
				return 0, fmt.Errorf("catalog reload: array %s: %w", a.def.name, err)
			}
			if spec.Name != a.def.name || spec.TotalBytes() != a.spec.TotalBytes() {
				return 0, fmt.Errorf("catalog reload: array %s records a different schema", a.def.name)
			}
		}
	}
	r.rep.checks = append(r.rep.checks, fmt.Sprintf("catalog: %d array(s) reload with their schemas", cat.Len()))
	if live == 0 {
		return 0, fmt.Errorf("no live array bytes")
	}
	return float64(onDisk) / float64(live), nil
}
