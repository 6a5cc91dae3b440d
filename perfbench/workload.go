package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"panda"
	"panda/internal/array"
	"panda/internal/core"
)

// elemSize is float32: every array is side³ float32.
const elemSize = 4

// setupReps is how many times a run sets the daemon up; setup_s is the
// median, and all but the last deployment are torn down again.
const setupReps = 9

// arrayDef declares one cube array and its memory and disk schemas.
type arrayDef struct {
	name     string
	side     int
	memMesh  []int
	memDist  []array.Dist
	diskMesh []int
	diskDist []array.Dist
}

func (d arrayDef) shape() []int { return []int{d.side, d.side, d.side} }

// spec is the core-level declaration, used by the layer probes that
// bypass the daemon.
func (d arrayDef) spec() (core.ArraySpec, error) {
	mem, err := array.NewSchema(d.shape(), d.memDist, d.memMesh)
	if err != nil {
		return core.ArraySpec{}, fmt.Errorf("array %s memory schema: %w", d.name, err)
	}
	dsk, err := array.NewSchema(d.shape(), d.diskDist, d.diskMesh)
	if err != nil {
		return core.ArraySpec{}, fmt.Errorf("array %s disk schema: %w", d.name, err)
	}
	return core.ArraySpec{Name: d.name, ElemSize: elemSize, Mem: mem, Disk: dsk}, nil
}

// declare is the same array through the public API.
func (d arrayDef) declare() (*panda.Array, error) {
	return panda.NewArray(d.name, d.shape(), elemSize,
		panda.NewLayout("mem", d.memMesh), pandaDist(d.memDist),
		panda.NewLayout("disk", d.diskMesh), pandaDist(d.diskDist))
}

func pandaDist(ds []array.Dist) []panda.Distribution {
	out := make([]panda.Distribution, len(ds))
	for i, d := range ds {
		if d == array.Block {
			out[i] = panda.BLOCK
		} else {
			out[i] = panda.NONE
		}
	}
	return out
}

// sessionDef is one client session: its tenant, compute nodes and the
// arrays it owns.
type sessionDef struct {
	tenant string
	nodes  int
	arrays []arrayDef
}

// workload is one input set. ckpt workloads alternate a write and a
// bit-exact read of their single array; mixed workloads run every
// session concurrently, each issuing seeded 50/50 writes and reads over
// its own arrays.
type workload struct {
	name     string
	why      string
	ckpt     bool
	sessions []sessionDef
}

var (
	bnn = []array.Dist{array.Block, array.Star, array.Star}
	bbb = []array.Dist{array.Block, array.Block, array.Block}
)

func workloads() map[string]*workload {
	ckptArray := func(memMesh []int, memDist []array.Dist) []arrayDef {
		return []arrayDef{{name: "ckpt", side: 512, memMesh: memMesh, memDist: memDist, diskMesh: []int{2}, diskDist: bnn}}
	}
	tenant := func(t string) sessionDef {
		s := sessionDef{tenant: t, nodes: 1}
		for i := 0; i < 4; i++ {
			s.arrays = append(s.arrays, arrayDef{name: fmt.Sprintf("%s%d", t, i), side: 64,
				memMesh: []int{1}, memDist: bnn, diskMesh: []int{2}, diskDist: bnn})
		}
		return s
	}
	ws := []*workload{
		{
			name:     "ckpt-natural",
			why:      "512 MiB natural-chunked checkpoint write and bit-exact readback: transport and storage do nearly all the work",
			ckpt:     true,
			sessions: []sessionDef{{tenant: "ckpt", nodes: 2, arrays: ckptArray([]int{2}, bnn)}},
		},
		{
			name:     "ckpt-reorg",
			why:      "same bytes and loop as ckpt-natural with memory (BLOCK,BLOCK,BLOCK) vs disk (BLOCK,*,*): only the pack/reorg layer differs",
			ckpt:     true,
			sessions: []sessionDef{{tenant: "ckpt", nodes: 2, arrays: ckptArray([]int{1, 1, 2}, bbb)}},
		},
		// tenants-small runs by name but is not in BENCHMARK.json. Its
		// per-op costs are wake-ups, loopback round trips and fsyncs, and
		// on a shared 2-core host those halve its op rate for minutes at a
		// time while the ckpt workloads move by about a tenth, so no
		// bound of 0.25 holds across runs of it.
		{
			name:     "tenants-small",
			why:      "two tenants of seeded 50/50 1 MiB writes and reads: admission, DRR, planning, control round trips and 2PC fsyncs dominate",
			sessions: []sessionDef{tenant("a"), tenant("b")},
		},
	}
	m := make(map[string]*workload, len(ws))
	for _, w := range ws {
		m[w.name] = w
	}
	return m
}

// shrunk returns a copy of w with every array side divided by div (the
// self-test's short runs).
func (w *workload) shrunk(div int) *workload {
	c := *w
	c.sessions = nil
	for _, s := range w.sessions {
		s2 := s
		s2.arrays = nil
		for _, a := range s.arrays {
			a.side /= div
			s2.arrays = append(s2.arrays, a)
		}
		c.sessions = append(c.sessions, s2)
	}
	return &c
}

type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch root inside the checkout
}

// liveArray is one array with its per-node buffers and the versions a
// read may legitimately return.
type liveArray struct {
	def  arrayDef
	spec core.ArraySpec
	arr  *panda.Array
	id   uint64
	bufs [][]byte // one chunk buffer per compute node
	// want lists the pattern versions the array may hold: one after a
	// successful write, the old and the new after a failed one.
	want []uint64
	next uint64
}

type liveSession struct {
	idx    int
	def    sessionDef
	sess   *panda.Session
	arrays []*liveArray
	ops    int // collectives issued; the next one's index in the session
}

// opRec is one collective call as the client saw it.
type opRec struct {
	write bool
	sess  int
	index int // position in the session's op sequence
	start time.Time
	dur   time.Duration
	bytes int64
	err   error
}

// phase collects one measured stretch of the closed loop.
type phase struct {
	mu     sync.Mutex
	ops    []opRec
	start  time.Time
	end    time.Time // when the last op ended
	length time.Duration
	cpu    cpuMeter
	tr     *tracer
}

func (p *phase) add(r opRec) {
	p.mu.Lock()
	p.ops = append(p.ops, r)
	if t := r.start.Add(r.dur); t.After(p.end) {
		p.end = t
	}
	p.mu.Unlock()
}

// windowCount is how many equal time windows a phase's ops are split
// into, by start time. Throughput and percentiles are taken per window
// and the median over the windows is reported: host noise on a shared
// machine comes in bursts of a few seconds, and a burst that hits one
// window then does not move the result.
const windowCount = 5

func (p *phase) windows() [windowCount][]opRec {
	var ws [windowCount][]opRec
	for _, o := range p.ops {
		i := min(int(o.start.Sub(p.start)*windowCount/p.length), windowCount-1)
		ws[i] = append(ws[i], o)
	}
	return ws
}

// setupTimes splits one set-up into the calls it made.
type setupTimes struct {
	start, dial, create, join, total time.Duration
}

// runner owns one invocation's deployment and data.
type runner struct {
	wl       *workload
	opts     runOpts
	sessions []*liveSession
	daemon   *panda.Daemon
	dir      string
	dirs     int
	rep      *report
	// afterRead, when set, sees each successful read's buffers before
	// the check; the self-test corrupts them through it.
	afterRead func(bufs [][]byte)
}

func newRunner(wl *workload, opts runOpts) (*runner, error) {
	r := &runner{wl: wl, opts: opts, rep: &report{traced: opts.trace}}
	var id uint64
	for si, sd := range wl.sessions {
		ls := &liveSession{idx: si, def: sd}
		for _, ad := range sd.arrays {
			spec, err := ad.spec()
			if err != nil {
				return nil, err
			}
			if spec.Mem.NumChunks() != sd.nodes {
				return nil, fmt.Errorf("array %s has %d memory chunks for %d nodes", ad.name, spec.Mem.NumChunks(), sd.nodes)
			}
			la := &liveArray{def: ad, spec: spec, id: id, want: []uint64{0}, next: 1}
			id++
			for n := 0; n < sd.nodes; n++ {
				la.bufs = append(la.bufs, make([]byte, spec.MemChunkBytes(n)))
			}
			fillPattern(la.bufs, opts.seed, la.id, 0)
			ls.arrays = append(ls.arrays, la)
		}
		r.sessions = append(r.sessions, ls)
	}
	return r, nil
}

// setup starts a daemon at pandad's defaults in a fresh directory,
// attaches every session, creates every array and joins the members to
// the mesh with a no-op Run.
func (r *runner) setup(tr *tracer) (setupTimes, error) {
	var st setupTimes
	r.dirs++
	r.dir = filepath.Join(r.opts.work, fmt.Sprintf("data-%d-%d", os.Getpid(), r.dirs))
	if err := os.RemoveAll(r.dir); err != nil {
		return st, err
	}
	t0 := time.Now()
	d, err := panda.StartDaemon(panda.DaemonConfig{
		Dir:         r.dir,
		ClientSlots: 8,
		IONodes:     2,
		OpTimeout:   30 * time.Second,
		HTTPAddr:    "127.0.0.1:0",
	})
	st.start = time.Since(t0)
	tr.add("panda", "StartDaemon", 0, t0, st.start, -1)
	if err != nil {
		return st, fmt.Errorf("start daemon: %w", err)
	}
	r.daemon = d
	for _, s := range r.sessions {
		t := time.Now()
		s.sess, err = panda.Dial(panda.SessionConfig{Addr: d.Addr(), Nodes: s.def.nodes, Tenant: s.def.tenant})
		dt := time.Since(t)
		st.dial += dt
		tr.add("panda", "Dial", s.idx, t, dt, -1)
		if err != nil {
			return st, fmt.Errorf("dial session %s: %w", s.def.tenant, err)
		}
		s.ops = 0
	}
	for _, s := range r.sessions {
		for _, a := range s.arrays {
			if a.arr, err = a.def.declare(); err != nil {
				return st, err
			}
			t := time.Now()
			err = s.sess.Create(a.arr)
			dt := time.Since(t)
			st.create += dt
			tr.add("panda", "Session.Create", s.idx, t, dt, -1)
			if err != nil {
				return st, fmt.Errorf("create %s: %w", a.def.name, err)
			}
		}
	}
	for _, s := range r.sessions {
		t := time.Now()
		err = s.sess.Run(func(*panda.Node) error { return nil })
		dt := time.Since(t)
		st.join += dt
		tr.add("panda", "Session.Run(join)", s.idx, t, dt, -1)
		if err != nil {
			return st, fmt.Errorf("join session %s: %w", s.def.tenant, err)
		}
	}
	st.total = time.Since(t0)
	return st, nil
}

// teardown detaches every session, drains the daemon and, unless keep,
// removes its directory. Teardown errors are recorded, never retried.
func (r *runner) teardown(keep bool) {
	for _, s := range r.sessions {
		if s.sess == nil {
			continue
		}
		if err := s.sess.Close(); err != nil {
			r.rep.teardown = append(r.rep.teardown, fmt.Sprintf("session %s close: %v", s.def.tenant, err))
		}
		s.sess = nil
	}
	if r.daemon != nil {
		if err := r.daemon.Drain(); err != nil {
			r.rep.teardown = append(r.rep.teardown, fmt.Sprintf("daemon drain: %v", err))
		}
		r.daemon = nil
	}
	if !keep {
		os.RemoveAll(r.dir) //nolint:errcheck // best effort; the directory is scratch
	}
}

// setups sets the deployment up setupReps times and keeps the last.
func (r *runner) setups(tr *tracer) ([]setupTimes, error) {
	var out []setupTimes
	for i := 0; i < setupReps; i++ {
		st, err := r.setup(tr)
		if err != nil {
			r.teardown(false)
			return nil, err
		}
		out = append(out, st)
		if i < setupReps-1 {
			r.teardown(false)
		}
	}
	return out, nil
}

// warmup binds the buffers and commits every array once, so the
// measured loop starts with files, plans and pools in place.
func (r *runner) warmup() error {
	for _, s := range r.sessions {
		err := s.sess.Run(func(n *panda.Node) error {
			for _, a := range s.arrays {
				if err := n.Bind(a.arr, a.bufs[n.Rank()]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("bind: %w", err)
		}
	}
	ph := &phase{}
	for _, s := range r.sessions {
		for _, a := range s.arrays {
			if err := r.op(ph, s, a, true); err != nil {
				return err
			}
			if r.wl.ckpt {
				if err := r.op(ph, s, a, false); err != nil {
					return err
				}
			}
		}
	}
	for _, o := range ph.ops {
		if o.err != nil {
			return fmt.Errorf("warm-up op failed: %w", o.err)
		}
	}
	return nil
}

// measure runs the closed loop for d.
func (r *runner) measure(tr *tracer, d time.Duration) (*phase, error) {
	ph := &phase{tr: tr, start: time.Now(), length: d}
	deadline := ph.start.Add(d)
	if r.wl.ckpt {
		s := r.sessions[0]
		a := s.arrays[0]
		for time.Now().Before(deadline) {
			if err := r.op(ph, s, a, true); err != nil {
				return ph, err
			}
			if err := r.op(ph, s, a, false); err != nil {
				return ph, err
			}
		}
		return ph, nil
	}
	errs := make([]error, len(r.sessions))
	var wg sync.WaitGroup
	for i, s := range r.sessions {
		wg.Add(1)
		go func(i int, s *liveSession) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.opts.seed*7919 + int64(i)))
			for time.Now().Before(deadline) {
				a := s.arrays[rng.Intn(len(s.arrays))]
				if err := r.op(ph, s, a, rng.Intn(2) == 0); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ph, err
		}
	}
	return ph, nil
}

// op issues one collective write or read of a and checks a read
// bit-exact outside its timing. The returned error is a correctness
// failure; an op that errors is recorded and counted, not returned.
func (r *runner) op(ph *phase, s *liveSession, a *liveArray, write bool) error {
	var v uint64
	if write {
		v = a.next
		a.next++
		fillPattern(a.bufs, r.opts.seed, a.id, v)
	} else {
		poison(a.bufs)
	}
	rec := opRec{write: write, sess: s.idx, index: s.ops, bytes: a.spec.TotalBytes()}
	s.ops++
	ph.cpu.enter()
	rec.start = time.Now()
	rec.err = s.sess.Run(func(n *panda.Node) error {
		t := time.Now()
		var err error
		if write {
			err = n.WriteArray(a.arr)
		} else {
			err = n.ReadArray(a.arr)
		}
		ph.tr.add("panda", opName(write)+" node", s.idx*8+n.Rank(), t, time.Since(t), rec.index)
		return err
	})
	rec.dur = time.Since(rec.start)
	ph.cpu.exit()
	ph.tr.add("panda", "Session.Run "+opName(write), s.idx*8+7, rec.start, rec.dur, rec.index)
	ph.add(rec)
	switch {
	case write && rec.err == nil:
		a.want = []uint64{v}
	case write:
		a.want = append(a.want, v)
	case rec.err == nil:
		if r.afterRead != nil {
			r.afterRead(a.bufs)
		}
		got, err := verifyAny(a.bufs, r.opts.seed, a.id, a.want)
		if err != nil {
			return fmt.Errorf("readback of %s (session %s, op %d): %w", a.def.name, s.def.tenant, rec.index, err)
		}
		a.want = []uint64{got}
	}
	return nil
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// durations returns the successful ops' latencies of one kind, sorted,
// and the bytes they moved.
func durations(ops []opRec, write bool) ([]time.Duration, int64) {
	var ds []time.Duration
	var bytes int64
	for _, o := range ops {
		if o.write == write && o.err == nil {
			ds = append(ds, o.dur)
			bytes += o.bytes
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds, bytes
}
