package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSelfTest runs every workload, including those BENCHMARK.json does
// not gate, briefly with its arrays shrunk, both untraced and traced, and
// checks that each run emits exactly the metrics BENCHMARK.json names,
// with their units. It then corrupts one byte of a read buffer in the
// real check path and requires the run to fail with a readback error.
func runSelfTest(work string) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	all := workloads()
	for _, w := range spec.Workloads {
		if _, ok := all[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, name := range workloadNames() {
		wl := all[name]
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep, err := run(wl.shrunk(4), runOpts{seed: 3, seconds: time.Second, trace: trace, work: work})
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, trace, err)
			}
			if err := sameMetrics(rep.emitted(), want); err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, trace, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				return fmt.Errorf("%s trace=%v: %d of %d ops failed", name, trace, rep.failed, rep.attempted)
			}
			fmt.Printf("selftest: %s trace=%v: %d metrics with units, %d ops\n", name, trace, len(want), rep.attempted)
		}
	}

	r, err := newRunner(all["tenants-small"].shrunk(4), runOpts{seed: 3, seconds: 200 * time.Millisecond, work: work})
	if err != nil {
		return err
	}
	r.afterRead = func(bufs [][]byte) { bufs[0][len(bufs[0])/2] ^= 0x40 }
	err = r.runCorrupted()
	if err == nil || !strings.Contains(err.Error(), "bit-exact check failed") {
		return fmt.Errorf("corrupted read buffer was not caught: %v", err)
	}
	fmt.Println("selftest: corrupted read buffer tripped the gate:", err)
	return nil
}

// runCorrupted drives set-up, warm-up and one measured loop on r.
func (r *runner) runCorrupted() error {
	defer r.teardown(false)
	if _, err := r.setups(nil); err != nil {
		return err
	}
	if err := r.warmup(); err != nil {
		return err
	}
	if _, err := r.measure(nil, r.opts.seconds); err != nil {
		return err
	}
	return errors.New("measured loop passed its checks")
}

// sameMetrics requires got (defined metrics only) to match want by
// name and unit, with nothing missing and nothing extra.
func sameMetrics(got []metric, want []specMetric) error {
	have := map[string]metric{}
	for _, m := range got {
		if m.why == "" && !m.reportOnly {
			have[m.name] = m
		}
	}
	for _, w := range want {
		m, ok := have[w.Name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", w.Name)
		}
		if m.unit != w.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.unit, w.Unit)
		}
		delete(have, w.Name)
	}
	for name := range have {
		return fmt.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
	}
	return nil
}
