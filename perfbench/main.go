// Command perfbench is the wall-clock benchmark of the production path:
// a panda.StartDaemon daemon at pandad's defaults (2 I/O nodes, 8 client
// slots, 30 s op timeout, default tuning) storing on OSDisk in a fresh
// directory of the checkout, driven over loopback TCP by panda.Dial
// sessions of this one process. Every workload is closed-loop. The
// daemon's telemetry plane listens on a loopback port so the traced run
// can read /metrics and /dump.
//
// Run it from the repository root through the wrapper, which builds the
// binary under .bench_build/ first:
//
//	bash perfbench/run.sh --workload ckpt-natural --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --selftest
//
// With --trace 0 the last stdout line carries the end-to-end metrics.
// With --trace 1 the run measures the workload once untraced and once
// traced, then probes each layer with the daemon already drained; the
// last line carries the per-layer metrics, and the report above it gives
// every end-to-end metric's trace overhead. A readback mismatch, a scrub
// issue or a catalog problem prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runLimit bounds one invocation: the benchmark contract allows 180 s.
const runLimit = 170 * time.Second

// metric is one named measurement with its unit. why, when set, says
// why the metric is undefined on this workload; such metrics are
// reported but never emitted as a number. reportOnly metrics are not
// named in BENCHMARK.json, so the last line carries the same set on
// every workload.
type metric struct {
	name       string
	value      float64
	unit       string
	n          int // ops or samples behind the value, 0 when not counted
	why        string
	note       string // why a value reads 0 on the daemon path; emitted all the same
	reportOnly bool
}

// result is the machine-readable last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for data patterns and op sequences")
	seconds := flag.Float64("seconds", 30, "measured seconds (a traced run splits them between an untraced and a traced phase)")
	trace := flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	selftest := flag.Bool("selftest", false, "run the benchmark's self-test and exit")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	work := filepath.Join(root, ".bench_build")
	if *selftest {
		if err := runSelfTest(work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench selftest: ok")
		return
	}
	wl, ok := workloads()[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	// The contract's deadline is absolute; a wedged run exits non-zero
	// rather than hang the caller.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		os.Exit(2)
	})

	opts := runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		work:    work,
	}
	rep, err := run(wl, opts)
	if rep != nil {
		printReport(os.Stdout, wl, opts, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if rep != nil {
			emit(rep, false)
		}
		os.Exit(1)
	}
	emit(rep, true)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the contract's last line. Undefined metrics are left out:
// they were reported, with their reason, above it.
func emit(rep *report, correct bool) {
	res := result{
		Correct:   correct,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range rep.emitted() {
		if m.why == "" && !m.reportOnly {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// printReport writes the human-readable part of the output.
func printReport(w *os.File, wl *workload, o runOpts, rep *report) {
	fmt.Fprintf(w, "workload %s seed %d seconds %.1f trace %v\n", wl.name, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintf(w, "why: %s\n", wl.why)
	fmt.Fprintf(w, "env: %s\n", rep.env)
	fmt.Fprintf(w, "ops: attempted %d failed %d error_rate %.6f\n", rep.attempted, rep.failed, errorRate(rep.attempted, rep.failed))
	for _, e := range rep.opErrors {
		fmt.Fprintf(w, "op error: %s\n", e)
	}
	fmt.Fprintf(w, "mpi.teardown_errors %d\n", len(rep.teardown))
	for _, e := range rep.teardown {
		fmt.Fprintf(w, "teardown error: %s\n", e)
	}
	for _, c := range rep.checks {
		fmt.Fprintf(w, "check: %s\n", c)
	}
	fmt.Fprintf(w, "process peak RSS %.0f MiB\n", peakRSSMB())
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %s\n", m.String())
		}
	}
	fmt.Fprintf(w, "throughput and percentiles: median over %d equal windows of each phase; n counts the ops\n", windowCount)
	section("end-to-end (untraced)", rep.e2e)
	if o.trace {
		section("end-to-end (traced phase)", rep.e2eTraced)
		var over []metric
		for _, m := range rep.e2e {
			t, ok := find(rep.e2eTraced, m.name)
			if !ok || m.why != "" || t.why != "" {
				continue
			}
			over = append(over, metric{name: m.name, value: t.value - m.value, unit: m.unit})
		}
		section("trace_overhead (traced minus untraced)", over)
		section("per-layer", rep.layers)
	}
}

func (m metric) String() string {
	if m.why != "" {
		return fmt.Sprintf("%-32s undefined: %s", m.name, m.why)
	}
	s := fmt.Sprintf("%-32s %.6g %s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf(" (n=%d)", m.n)
	}
	if m.reportOnly {
		s += " [reported only]"
	}
	if m.note != "" && m.value == 0 {
		s += " -- 0 because " + m.note
	}
	return s
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
