package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"panda/internal/array"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// metricsSnap is one scrape of the daemon's /metrics.
type metricsSnap map[string]json.RawMessage

var httpClient = &http.Client{Timeout: 20 * time.Second}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	return b, nil
}

func scrapeMetrics(addr string) (metricsSnap, error) {
	b, err := httpGet(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	var m metricsSnap
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return m, nil
}

// counter reads a counter; absent counters read 0.
func (m metricsSnap) counter(name string) float64 {
	var v float64
	if raw, ok := m[name]; ok {
		json.Unmarshal(raw, &v) //nolint:errcheck // a non-number reads as 0
	}
	return v
}

func (m metricsSnap) hist(name string) obs.HistSnapshot {
	var h obs.HistSnapshot
	if raw, ok := m[name]; ok {
		json.Unmarshal(raw, &h) //nolint:errcheck // a malformed histogram reads empty
	}
	return h
}

func delta(before, after metricsSnap, name string) float64 {
	return after.counter(name) - before.counter(name)
}

// fetchDump asks the daemon to snapshot its flight recorder and parses
// the dump it wrote.
func fetchDump(addr string) (*obs.ChromeTrace, error) {
	b, err := httpGet(addr, "/dump")
	if err != nil {
		return nil, err
	}
	var rep struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("/dump: %w", err)
	}
	data, err := os.ReadFile(rep.Path)
	if err != nil {
		return nil, err
	}
	return obs.ParseChromeTrace(data)
}

func msMetric(name string, xs []float64) metric {
	return metric{name: name, value: median(xs), unit: "ms", n: len(xs)}
}

// pandaLayer splits the traced set-ups into the control-plane calls.
func pandaLayer(setups []setupTimes) []metric {
	var start, dial, create, join []float64
	for _, s := range setups {
		start = append(start, ms(s.start))
		dial = append(dial, ms(s.dial))
		create = append(create, ms(s.create))
		join = append(join, ms(s.join))
	}
	return []metric{
		msMetric("panda.start_ms", start),
		msMetric("panda.dial_ms", dial),
		msMetric("panda.create_ms", create),
		msMetric("panda.mesh_join_ms", join),
	}
}

// coreLayer reads the server side of the traced phase: per-op phase
// medians from the flight-recorder dump, paired with the client-timed
// latency of the same op, and scheduler and mover counters from
// /metrics. seqBase[i] is session i's first op sequence number.
func coreLayer(wl *workload, ph *phase, before, after metricsSnap, dump *obs.ChromeTrace, seqBase []int) []metric {
	bySeq := map[int]obs.OpPhases{}
	for _, p := range obs.PhasesFromChrome(dump) {
		bySeq[p.Seq] = p
	}
	type cols struct{ wall, plan, net, disk, stall, reorg, commit, outside []float64 }
	var w, r cols
	mismatched := 0
	for _, o := range ph.ops {
		if o.err != nil {
			continue
		}
		p, ok := bySeq[seqBase[o.sess]+o.index]
		// Ops whose spans the recorder ring already overwrote carry no
		// op or plan span; they are left out.
		if !ok || p.Name == "" || p.Plan == 0 {
			continue
		}
		if p.Name != opName(o.write) {
			mismatched++
			continue
		}
		c := &r
		if o.write {
			c = &w
		}
		c.wall = append(c.wall, ms(p.Wall))
		c.plan = append(c.plan, ms(p.Plan))
		c.net = append(c.net, ms(p.Net))
		c.disk = append(c.disk, ms(p.Disk))
		c.stall = append(c.stall, ms(p.Stall))
		c.reorg = append(c.reorg, ms(p.Reorg))
		c.commit = append(c.commit, ms(p.Recover))
		c.outside = append(c.outside, ms(o.dur-p.Wall))
	}
	var out []metric
	for _, k := range []struct {
		kind string
		c    *cols
	}{{"write", &w}, {"read", &r}} {
		pre := "core." + k.kind + "."
		if len(k.c.wall) == 0 {
			for _, col := range []string{"wall", "plan", "net", "disk", "stall", "reorg", "outside"} {
				out = append(out, metric{name: pre + col + "_ms", unit: "ms", why: "no " + k.kind + " of the traced phase survived in the flight recorder"})
			}
			continue
		}
		reorg := msMetric(pre+"reorg_ms", k.c.reorg)
		reorg.note = "the recorder holds the daemon's server spans and the reorg copy runs in the session's client"
		out = append(out,
			msMetric(pre+"wall_ms", k.c.wall), msMetric(pre+"plan_ms", k.c.plan),
			msMetric(pre+"net_ms", k.c.net), msMetric(pre+"disk_ms", k.c.disk),
			msMetric(pre+"stall_ms", k.c.stall), reorg)
		if k.kind == "write" {
			out = append(out, msMetric(pre+"commit_ms", k.c.commit))
		}
		if mismatched > 0 {
			out = append(out, metric{name: pre + "outside_ms", unit: "ms", why: fmt.Sprintf("%d op(s) did not pair with a server op of the same kind", mismatched)})
		} else {
			out = append(out, msMetric(pre+"outside_ms", k.c.outside))
		}
	}

	ops := float64(len(ph.ops))
	hits, misses := delta(before, after, "plan_cache_hits"), delta(before, after, "plan_cache_misses")
	if hits+misses == 0 {
		out = append(out, metric{name: "core.plan_cache_hit_ratio", unit: "ratio", why: "no plan-cache lookups: the daemon's scheduled executors plan without the cache"})
	} else {
		out = append(out, metric{name: "core.plan_cache_hit_ratio", value: hits / (hits + misses), unit: "ratio", n: int(hits + misses),
			note: "every lookup missed: each scheduled executor plans with a fresh server and an empty plan cache"})
	}
	out = append(out,
		metric{name: "core.disk_merges_per_op", value: delta(before, after, "sched_disk_merges") / ops, unit: "count"},
		metric{name: "core.retries", value: delta(before, after, "retries"), unit: "count"},
		metric{name: "core.timeouts", value: delta(before, after, "timeouts"), unit: "count"},
		metric{name: "core.busy_rejects", value: delta(before, after, "sched_busy_rejects"), unit: "count"},
		histP50("core.subchunk_latency_p50_us", before.hist("subchunk_latency_ns"), after.hist("subchunk_latency_ns")))
	if len(wl.sessions) == 2 {
		a := delta(before, after, "tenant_ops_"+wl.sessions[0].tenant)
		b := delta(before, after, "tenant_ops_"+wl.sessions[1].tenant)
		if b > 0 {
			out = append(out, metric{name: "core.tenant_ops_ratio", value: a / b, unit: "ratio", reportOnly: true})
		} else {
			out = append(out, metric{name: "core.tenant_ops_ratio", unit: "ratio", why: "second tenant completed no ops", reportOnly: true})
		}
	} else {
		out = append(out, metric{name: "core.tenant_ops_ratio", unit: "ratio", why: "one tenant only: there is no DRR share to compare", reportOnly: true})
	}
	return out
}

// histP50 estimates the median of the observations made between two
// histogram snapshots, interpolating linearly inside the bucket (the
// daemon's buckets are powers of four, so this is coarse).
func histP50(name string, before, after obs.HistSnapshot) metric {
	n := after.Count - before.Count
	if n <= 0 || len(after.Counts) != len(before.Counts) {
		return metric{name: name, unit: "us", why: "no sub-chunk latencies observed"}
	}
	half := float64(n) / 2
	var cum float64
	for i := range after.Counts {
		c := float64(after.Counts[i] - before.Counts[i])
		if cum+c >= half && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = float64(after.Bounds[i-1])
			}
			hi := lo
			if i < len(after.Bounds) {
				hi = float64(after.Bounds[i])
			}
			return metric{name: name, value: (lo + (hi-lo)*(half-cum)/c) / 1e3, unit: "us", n: int(n)}
		}
		cum += c
	}
	return metric{name: name, unit: "us", why: "histogram counts inconsistent"}
}

// arrayLayer times CopyRegion over exactly the workload's memory-chunk
// ∩ sub-chunk sections, packing into a sub-chunk buffer and unpacking
// back, and reads the daemon's pack counter.
func (r *runner) arrayLayer(ph *phase, before, after metricsSnap) []metric {
	a := r.sessions[0].arrays[0]
	spec := a.spec
	sub := int64(1 << 20) // the daemon's default sub-chunk
	type section struct {
		node       int
		subR, sect array.Region
	}
	var secs []section
	var runs int
	var bytes int64
	mem := spec.Mem.Chunks()
	for _, dc := range spec.Disk.Chunks() {
		for _, sr := range array.SplitContiguous(dc, spec.ElemSize, sub) {
			for n, mc := range mem {
				sect, ok := array.Intersect(mc, sr)
				if !ok {
					continue
				}
				k := len(array.ContiguousRuns(mc, sect))
				if ks := len(array.ContiguousRuns(sr, sect)); ks > k {
					k = ks
				}
				runs += k
				bytes += sect.NumElems() * int64(spec.ElemSize)
				secs = append(secs, section{node: n, subR: sr, sect: sect})
			}
		}
	}
	buf := make([]byte, sub)
	var moved int64
	start := time.Now()
	for moved == 0 || time.Since(start) < 300*time.Millisecond {
		for _, s := range secs {
			array.CopyRegion(buf, s.subR, a.bufs[s.node], mem[s.node], s.sect, spec.ElemSize)
			array.CopyRegion(a.bufs[s.node], mem[s.node], buf, s.subR, s.sect, spec.ElemSize)
		}
		moved += 2 * bytes
	}
	el := time.Since(start)
	ops := float64(len(ph.ops))
	return []metric{
		{name: "array.pack_mbs", value: float64(moved) / el.Seconds() / 1e6, unit: "MB/s"},
		{name: "array.runs_per_mib", value: float64(runs) / (float64(bytes) / (1 << 20)), unit: "count"},
		{name: "array.pack_ns_per_op", value: delta(before, after, "pack_ns") / ops, unit: "ns",
			note: "every sub-chunk arrives whole from one client, so the servers copy nothing, and the session clients export no pack counter"},
	}
}

// mpiLayer reports the daemon's transport counters per op and probes
// the TCP hub on its own: 1 MiB frame relay bandwidth and a 64 B frame
// round trip between two DialComm ranks. It returns the hub's teardown
// error, for the caller to count, apart from a probe failure.
func mpiLayer(ph *phase, before, after metricsSnap) (out []metric, teardown, err error) {
	ops := float64(len(ph.ops))
	var user float64
	for _, o := range ph.ops {
		user += float64(o.bytes)
	}
	relay, rtt, teardown, err := hubProbe()
	if err != nil {
		return nil, teardown, fmt.Errorf("hub probe: %w", err)
	}
	return []metric{
		{name: "mpi.bytes_per_user_byte", value: (delta(before, after, "bytes_sent") + delta(before, after, "bytes_recv")) / user, unit: "ratio"},
		{name: "mpi.msgs_per_op", value: (delta(before, after, "msgs_sent") + delta(before, after, "msgs_recv")) / ops, unit: "count"},
		{name: "mpi.frames_coalesced_per_op", value: delta(before, after, "frames_coalesced") / ops, unit: "count"},
		{name: "mpi.relay_mbs", value: relay, unit: "MB/s"},
		{name: "mpi.frame_rtt_us", value: rtt, unit: "us"},
	}, teardown, nil
}

// hubProbe runs a two-rank hub. It returns relay MB/s (median of three
// 256 MiB bursts), the median 64 B round trip in µs, and the error the
// hub's Serve returned at teardown.
func hubProbe() (relay, rttUs float64, teardown, err error) {
	const tag = 7
	hub, err := mpi.ListenHub("127.0.0.1:0", 2)
	if err != nil {
		return 0, 0, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- hub.Serve() }()
	c0, err := mpi.DialComm(hub.Addr(), 0, 2)
	if err != nil {
		hub.Close()
		return 0, 0, <-served, err
	}
	c1, err := mpi.DialComm(hub.Addr(), 1, 2)
	if err != nil {
		mpi.CloseComm(c0) //nolint:errcheck // probe already failed
		hub.Close()
		return 0, 0, <-served, err
	}

	frame := make([]byte, 1<<20)
	const frames = 256
	var rates []float64
	for rep := 0; rep < 4; rep++ {
		got := make(chan int, 1)
		go func() {
			n := 0
			for i := 0; i < frames; i++ {
				n += len(c1.Recv(0, tag).Data)
			}
			got <- n
		}()
		t := time.Now()
		for i := 0; i < frames; i++ {
			c0.Send(1, tag, frame)
		}
		n := <-got
		if rep > 0 { // the first burst warms the connections
			rates = append(rates, float64(n)/time.Since(t).Seconds()/1e6)
		}
	}

	small := make([]byte, 64)
	echoed := make(chan struct{})
	const trips = 2000
	go func() {
		defer close(echoed)
		for i := 0; i < trips; i++ {
			m := c1.Recv(0, tag)
			c1.Send(0, tag, m.Data)
		}
	}()
	var rtts []float64
	for i := 0; i < trips; i++ {
		t := time.Now()
		c0.Send(1, tag, small)
		c0.Recv(1, tag)
		rtts = append(rtts, float64(time.Since(t).Nanoseconds())/1e3)
	}
	<-echoed

	mpi.CloseComm(c0) //nolint:errcheck // the hub's Serve result reports teardown
	mpi.CloseComm(c1) //nolint:errcheck
	teardown = <-served
	return median(rates), median(rtts), teardown, nil
}

// storageProbe drives OSDisk alone in a fresh directory: one server's
// 256 MiB share written in 1 MiB units then Sync'd and read back (from
// the page cache), and a 512 KiB share written, Sync'd and renamed.
func (r *runner) storageProbe() ([]metric, error) {
	dir := filepath.Join(r.opts.work, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	disk, err := storage.NewOSDisk(dir)
	if err != nil {
		return nil, err
	}
	const unit = 1 << 20
	const share = 256 << 20
	buf := make([]byte, unit)
	fillPattern([][]byte{buf}, r.opts.seed, 1<<40, 0)
	f, err := disk.Create("big")
	if err != nil {
		return nil, err
	}
	t := time.Now()
	for off := int64(0); off < share; off += unit {
		if _, err := f.WriteAt(buf, off); err != nil {
			f.Close()
			return nil, err
		}
	}
	write := time.Since(t)
	t = time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	sync := time.Since(t)
	t = time.Now()
	for off := int64(0); off < share; off += unit {
		if _, err := f.ReadAt(buf, off); err != nil {
			f.Close()
			return nil, err
		}
	}
	read := time.Since(t)
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := disk.Remove("big"); err != nil {
		return nil, err
	}

	small := make([]byte, 512<<10)
	var syncs, renames []float64
	for i := 0; i < 9; i++ {
		f, err := disk.Create("small.tmp")
		if err != nil {
			return nil, err
		}
		if _, err := f.WriteAt(small, 0); err != nil {
			f.Close()
			return nil, err
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		syncs = append(syncs, ms(time.Since(t)))
		if err := f.Close(); err != nil {
			return nil, err
		}
		t = time.Now()
		if err := disk.Rename("small.tmp", "small"); err != nil {
			return nil, err
		}
		renames = append(renames, ms(time.Since(t)))
	}
	return []metric{
		{name: "storage.write_mbs", value: share / write.Seconds() / 1e6, unit: "MB/s"},
		{name: "storage.sync_ms", value: ms(sync), unit: "ms"},
		{name: "storage.read_mbs", value: share / read.Seconds() / 1e6, unit: "MB/s"},
		msMetric("storage.small_sync_ms", syncs),
		msMetric("storage.rename_ms", renames),
	}, nil
}

// inprocProbe runs the first session's arrays through core.RunReal on
// an in-memory disk: the same protocol and scheduler with no TCP and no
// disk.
// Reads are checked bit-exact like the workload's.
func (r *runner) inprocProbe() ([]metric, error) {
	s := r.sessions[0]
	cfg := core.Config{
		NumClients: s.def.nodes,
		NumServers: 2,
		OpTimeout:  30 * time.Second,
		Sched:      core.SchedConfig{MaxInflight: 4},
	}
	// The drained daemon's memory goes back to the OS first, and the
	// probe runs with a tighter GC target: its disks hold the old and the
	// new epoch of every array, and at the default target the heap would
	// double that again.
	debug.FreeOSMemory()
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	disks := []storage.Disk{newHeapDisk(), newHeapDisk()}
	// Enough ops to fill about a second; at least three of each kind.
	reps := int(128 << 20 / s.arrays[0].spec.TotalBytes())
	if reps < 3 {
		reps = 3
	}
	// The probe rewrites the version each array holds now, so every
	// read can be checked against it.
	vers := make([]uint64, len(s.arrays))
	for i, a := range s.arrays {
		v, err := verifyAny(a.bufs, r.opts.seed, a.id, a.want)
		if err != nil {
			return nil, fmt.Errorf("in-process probe: %s before the probe: %w", a.def.name, err)
		}
		vers[i] = v
	}
	var wt, rt time.Duration
	var wb, rb int64
	var all []float64
	err := core.RunReal(cfg, disks, func(cl *core.Client) error {
		for i := 0; i < reps; i++ {
			for ai, a := range s.arrays {
				for _, write := range []bool{true, false} {
					// Every member runs the same SPMD sequence on its own
					// chunk buffer; member 0 keeps the clock.
					buf := a.bufs[cl.Rank()]
					specs := []core.ArraySpec{a.spec}
					var err error
					if !write {
						clear(buf)
					}
					t := time.Now()
					if write {
						err = cl.WriteArrays("", specs, [][]byte{buf})
					} else {
						err = cl.ReadArrays("", specs, [][]byte{buf})
					}
					el := time.Since(t)
					if err != nil {
						return err
					}
					if !write {
						if err := checkChunk(buf, r.opts.seed, a.id, vers[ai], cl.Rank()); err != nil {
							return fmt.Errorf("readback of %s: %w", a.def.name, err)
						}
					}
					if cl.Rank() == 0 {
						all = append(all, ms(el))
						if write {
							wt += el
							wb += a.spec.TotalBytes()
						} else {
							rt += el
							rb += a.spec.TotalBytes()
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("in-process probe: %w", err)
	}
	return []metric{
		{name: "core.inproc_write_mbs", value: float64(wb) / wt.Seconds() / 1e6, unit: "MB/s"},
		{name: "core.inproc_read_mbs", value: float64(rb) / rt.Seconds() / 1e6, unit: "MB/s"},
		msMetric("core.inproc_op_ms", all),
	}, nil
}
