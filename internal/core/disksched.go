package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/obs"
	"panda/internal/storage"
)

// The node storage stage.
//
// Every server node runs exactly one storage activity (a goroutine under
// the wall clock, a simulated process under vtime), started by Serve
// before it dispatches anything, on either dispatch path. It owns its
// own rebound Disk and every data-path file handle: movers never touch
// media themselves, they submit requests to the stage's queue and take
// replies from a per-stream mailbox (engine.go). Metadata — manifests,
// decision records, renames — stays on the movers' own disks.
//
// Requests arriving close together, from one operation's window or from
// concurrent executors, are drained as one batch. Adjacent writes inside
// a batch are merged into a single WriteAt: two interleaved collectives
// touching neighbouring file ranges cost one seek instead of two. Reads,
// syncs and closes run in arrival order, which is plan order within a
// stream, so file access stays as sequential as the plan.
//
// Every reply carries the time the stage spent in file calls on its
// behalf, so the mover can split its waits into disk time it hid behind
// network work (OverlapNanos) and time it stalled (StallNanos). Disk
// spans land on the "serverN/storage" track, a separate Chrome thread
// under the server's process.

// mergeCap bounds a merged write: past this, batching gains nothing and
// the copy cost dominates.
const mergeCap = 8 << 20

const (
	dCreate = iota // name -> reply.f
	dOpen          // name, want -> reply.f (size-checked)
	dWrite         // f, buf, off, pooled -> reply.err
	dRead          // f, buf, off -> reply.buf filled in place
	dSync          // f -> reply.err
	dClose         // f -> reply.err
	dStop          // shut the activity down, then reply
)

type diskReq struct {
	kind   int
	seq    int // operation sequence, for trace spans
	name   string
	want   int64
	f      storage.File
	buf    []byte
	off    int64
	pooled bool
	reply  mbox[diskReply]
	// abandoned is the submitting stream's give-up flag: a queued read
	// or write whose stream has given up is answered without touching
	// the disk.
	abandoned *atomic.Bool
}

// dropped reports whether the request's stream gave up on it.
func (req *diskReq) dropped() bool { return req.abandoned != nil && req.abandoned.Load() }

type diskReply struct {
	f     storage.File
	buf   []byte // dRead: the caller's buffer, handed back filled
	err   error
	nanos int64 // time spent in file calls serving this request
}

// storageStage is the handle on a node's storage activity.
type storageStage struct {
	box mbox[diskReq]
}

// startStorageStage starts the storage activity for server s.
func startStorageStage(dom clock.Domain, s *Server) *storageStage {
	st := &storageStage{box: newMbox[diskReq](s.clk)}
	tr := s.storageTrack()
	dom.Go(fmt.Sprintf("server%d-storage", s.index), func(clk clock.Clock) {
		dd := storage.RebindClock(s.disk, clk)
		for {
			first, err := st.box.pop(clk, nil, 0)
			if err != nil {
				return // closed
			}
			batch := append([]diskReq{first}, st.box.drain()...)
			if !s.runDiskBatch(dd, clk, tr, batch) {
				return
			}
		}
	})
	return st
}

// storageTrack resolves the storage stage's trace track: same Chrome
// process as the server, its own thread.
func (s *Server) storageTrack() obs.Track {
	return s.cfg.Trace.Track(fmt.Sprintf("server%d/storage", s.index))
}

// stop shuts the activity down after it has served everything queued
// ahead, and returns once it has left its loop. clk is the caller's.
func (st *storageStage) stop(clk clock.Clock) { st.rpc(clk, diskReq{kind: dStop}) }

// rpc submits one request and waits for its reply. clk is the caller's.
func (st *storageStage) rpc(clk clock.Clock, req diskReq) diskReply {
	req.reply = newMbox[diskReply](clk)
	st.box.put(req)
	rep, err := req.reply.pop(clk, nil, 0)
	if err != nil {
		return diskReply{err: err}
	}
	return rep
}

// runDiskBatch executes one drained batch in three phases: opens (they
// gate movers starting work), writes (grouped by file, sorted by
// offset, adjacent runs merged), then reads/syncs/closes in arrival
// order. A stream's Sync/Close is always issued after its writes'
// replies, so it lands in a later batch than the writes it follows.
// Returns false when the batch contained dStop, which is answered last.
func (s *Server) runDiskBatch(dd storage.Disk, clk clock.Clock, tr obs.Track, batch []diskReq) bool {
	var stop *diskReq
	var files []storage.File
	writes := make(map[storage.File][]diskReq)
	var rest []diskReq
	for i, req := range batch {
		switch req.kind {
		case dCreate:
			f, err := dd.Create(req.name)
			req.reply.put(diskReply{f: f, err: err})
		case dOpen:
			f, err := s.openForRead(dd, req.name, req.want)
			req.reply.put(diskReply{f: f, err: err})
		case dWrite:
			if req.dropped() {
				if req.pooled {
					bufpool.Put(req.buf)
				}
				req.reply.put(diskReply{err: errStreamAbandoned})
				continue
			}
			if len(writes[req.f]) == 0 {
				files = append(files, req.f)
			}
			writes[req.f] = append(writes[req.f], req)
		case dStop:
			stop = &batch[i]
		default:
			rest = append(rest, req)
		}
	}
	for _, f := range files {
		s.flushWrites(f, writes[f], clk, tr)
	}
	for _, req := range rest {
		t0 := clk.Now()
		var err error
		switch req.kind {
		case dRead:
			if req.dropped() {
				err = errStreamAbandoned
				break
			}
			_, err = req.f.ReadAt(req.buf, req.off)
			if tr.Enabled() && err == nil {
				tr.Span(obs.CatDisk, "ReadAt", req.seq, t0, clk.Now(), int64(len(req.buf)))
			}
		case dSync:
			err = req.f.Sync()
		case dClose:
			err = req.f.Close()
		}
		rep := diskReply{err: err, nanos: int64(clk.Now() - t0)}
		if req.kind == dRead {
			rep.buf = req.buf
		}
		req.reply.put(rep)
	}
	if stop != nil {
		stop.reply.put(diskReply{})
		return false
	}
	return true
}

// flushWrites issues one file's writes from a batch, merging adjacent
// runs into single WriteAt calls. A merged call's time is shared among
// its requests by bytes.
func (s *Server) flushWrites(f storage.File, reqs []diskReq, clk clock.Clock, tr obs.Track) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].off < reqs[j].off })
	for i := 0; i < len(reqs); {
		// Extend the run while the next write starts exactly where this
		// one ends and the merged buffer stays under mergeCap.
		j := i + 1
		total := int64(len(reqs[i].buf))
		for j < len(reqs) &&
			reqs[j].off == reqs[j-1].off+int64(len(reqs[j-1].buf)) &&
			total+int64(len(reqs[j].buf)) <= mergeCap {
			total += int64(len(reqs[j].buf))
			j++
		}
		run := reqs[i:j]
		t0 := clk.Now()
		var err error
		if len(run) == 1 {
			_, err = f.WriteAt(run[0].buf, run[0].off)
		} else {
			merged := bufpool.GetRaw(int(total))
			n := 0
			for _, req := range run {
				n += copy(merged[n:], req.buf)
			}
			_, err = f.WriteAt(merged, run[0].off)
			bufpool.Put(merged)
			m := int64(len(run) - 1)
			atomic.AddInt64(&s.stats.DiskMerges, m)
			s.met.diskMerges.Add(m)
		}
		t1 := clk.Now()
		if tr.Enabled() {
			tr.Span(obs.CatDisk, "WriteAt", run[0].seq, t0, t1, total)
		}
		for _, req := range run {
			n := int64(len(req.buf))
			if req.pooled {
				bufpool.Put(req.buf)
			}
			share := int64(t1-t0) * n
			if total > 0 {
				share /= total
			}
			req.reply.put(diskReply{err: err, nanos: share})
		}
		i = j
	}
}
