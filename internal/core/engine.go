package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/obs"
	"panda/internal/storage"
)

// The server engine.
//
// A server's share of one collective operation is a three-stage
// pipeline:
//
//	planner  — assignChunks/planSubchunks (pure math, runs inline);
//	mover    — the network stage: pulls pieces from clients (writes) or
//	           scatters them (reads), and owns all deadline, retry and
//	           abort handling. The mover runs on the operation's own
//	           activity because the communicator endpoint is bound to it.
//	storage  — the node's storage stage (disksched.go), shared by every
//	           operation on the node, which issues the file calls.
//
// The mover reaches the storage stage through a stream: one file, one
// bounded window of outstanding requests.
//
//	writes — at most Pipeline requests outstanding: after handing a
//	         completed sub-chunk over, the mover waits until fewer than
//	         Pipeline writes are in flight, so Pipeline-1 of them write
//	         behind its next pulls.
//	reads  — at most ReadAhead+1 requests outstanding, in plan order:
//	         the sub-chunk the mover waits for plus ReadAhead prefetched
//	         behind it.
//
// Pipeline <= 1 and ReadAhead == 0 (the paper's configuration) is
// therefore submit-and-wait: strictly serial, reproducing the paper's
// timings, since the hand-off itself costs no virtual time.
//
// Failure model across the stage boundary: the mover keeps exclusive
// ownership of deadlines, retries and aborts. A storage error rides
// back on its reply and is sticky in the stream, failing the next
// hand-off. Either way the mover drains its window before the operation
// returns, so no request outlives the operation, and the first error in
// reply order wins.
//
// Observability: under a window wider than one, the mover's waits on
// replies are stalls (stall spans land on the mover's own track), and
// the reply disk time it did not wait for is overlap. Under a window of
// one the mover is simply doing its own disk I/O: neither is counted.
// Stall spans shorter than 1µs are suppressed — a real-clock hand-off
// costs nanoseconds and is not a stall.

// stallSpanFloor filters hand-off noise out of stall spans; the stall
// *counters* still accumulate every nanosecond.
const stallSpanFloor = time.Microsecond

// errStreamAbandoned answers a queued request whose stream gave up.
var errStreamAbandoned = errors.New("core: storage stream abandoned")

// mergeStage folds a finished stream's accounting into the server
// stats: the disk time the pipeline hid is what the storage stage spent
// on disk beyond the mover's waits for it.
func (s *Server) mergeStage(diskNanos, stallNanos int64) {
	atomic.AddInt64(&s.stats.StallNanos, stallNanos)
	if hidden := diskNanos - stallNanos; hidden > 0 {
		atomic.AddInt64(&s.stats.OverlapNanos, hidden)
	}
}

// stream is one operation's window onto the node's storage stage for
// one file. Exactly one of finish (success path: drain, sync, close,
// surface storage errors) or abandon (mover failed: drain, close) must
// be called.
type stream struct {
	stage   *storageStage
	clk     clock.Clock // the mover's clock: stalls are charged to it
	tr      obs.Track   // the mover's track: stall spans land here
	seq     int
	depth   *obs.Histogram
	f       storage.File
	replies mbox[diskReply]
	window  int
	out     int   // requests submitted whose replies are not yet taken
	err     error // first failure; sticky
	writing bool
	gaveUp  atomic.Bool // set by abandon: the stage drops queued I/O

	subs []subchunkJob // reads: the plan, submitted in order
	sent int           // reads: plan entries submitted so far

	diskNanos, stall int64
}

// openWriteStream creates name on the storage stage for a write window
// of Pipeline requests.
func (s *Server) openWriteStream(name string) (*stream, error) {
	return s.openStream(diskReq{kind: dCreate, name: name}, s.cfg.pipeline(), nil)
}

// openReadStream opens name on the storage stage, checking it holds
// want bytes, for a read window of ReadAhead+1 requests over subs.
func (s *Server) openReadStream(name string, subs []subchunkJob, want int64) (*stream, error) {
	return s.openStream(diskReq{kind: dOpen, name: name, want: want}, s.cfg.readAhead()+1, subs)
}

func (s *Server) openStream(open diskReq, window int, subs []subchunkJob) (*stream, error) {
	open.seq = s.opSeq
	rep := s.stage.rpc(s.clk, open)
	if rep.err != nil {
		return nil, rep.err
	}
	return &stream{
		stage:   s.stage,
		clk:     s.clk,
		tr:      s.tr,
		seq:     s.opSeq,
		depth:   s.met.queueDepth,
		f:       rep.f,
		replies: newMbox[diskReply](s.clk),
		window:  window,
		writing: open.kind == dCreate,
		subs:    subs,
	}, nil
}

// openForRead opens the array file and checks it holds this server's
// share — want bytes, schema-derived for legacy files and taken from
// the manifest for committed epochs (whose degraded layout may differ
// from the schema's round-robin assignment).
func (s *Server) openForRead(d storage.Disk, name string, want int64) (storage.File, error) {
	f, err := d.Open(name)
	if err != nil {
		return nil, err
	}
	if sz, serr := f.Size(); serr != nil {
		f.Close()
		return nil, serr
	} else if sz < want {
		f.Close()
		return nil, fmt.Errorf("file %s holds %d bytes, schema needs %d", name, sz, want)
	}
	return f, nil
}

func (k *stream) submit(req diskReq) {
	req.seq, req.f, req.reply, req.abandoned = k.seq, k.f, k.replies, &k.gaveUp
	k.stage.box.put(req)
	k.out++
	k.depth.Observe(int64(k.out))
}

// reap takes the oldest outstanding reply, accounting the wait for it
// as a stall (and the reply's disk time as candidate overlap) when the
// window lets the mover run ahead of the disk.
func (k *stream) reap(why string) diskReply {
	t0 := k.clk.Now()
	rep, _ := k.replies.pop(k.clk, nil, 0) // the reply box is never closed
	t1 := k.clk.Now()
	k.out--
	if k.window > 1 {
		k.stall += int64(t1 - t0)
		k.diskNanos += rep.nanos
		if t1-t0 >= stallSpanFloor {
			k.tr.Span(obs.CatStall, why, k.seq, t0, t1, int64(len(rep.buf)))
		}
	}
	if k.err == nil {
		k.err = rep.err
	}
	return rep
}

// write hands one completed sub-chunk, in plan order, to the storage
// stage, then waits until fewer than window writes are outstanding.
// pooled marks buffers owned by bufpool, which the stage recycles once
// written. It returns the first storage error seen so far.
func (k *stream) write(buf []byte, off int64, pooled bool) error {
	if k.err != nil {
		if pooled {
			bufpool.Put(buf)
		}
		return k.err
	}
	k.submit(diskReq{kind: dWrite, buf: buf, off: off, pooled: pooled})
	for k.out >= k.window {
		k.reap("write-behind full")
	}
	return k.err
}

// next returns the next sub-chunk of the plan, read into a pooled
// buffer, after topping the window up with the reads that follow it.
// The mover calls it once per plan entry.
func (k *stream) next() ([]byte, error) {
	for k.err == nil && k.sent < len(k.subs) && k.out < k.window {
		sj := k.subs[k.sent]
		k.sent++
		k.submit(diskReq{kind: dRead, buf: bufpool.GetRaw(int(sj.Bytes)), off: sj.FileOffset})
	}
	if k.err != nil {
		return nil, k.err
	}
	rep := k.reap("prefetch wait")
	if rep.err != nil {
		bufpool.Put(rep.buf)
		return nil, rep.err
	}
	return rep.buf, nil
}

// drain takes every outstanding reply, recycling prefetched buffers.
func (k *stream) drain() {
	for k.out > 0 {
		if rep := k.reap("join storage"); rep.buf != nil {
			bufpool.Put(rep.buf)
		}
	}
}

func (k *stream) call(kind int) {
	k.submit(diskReq{kind: kind})
	k.reap("join storage")
}

// finish drains the window, syncs a written file and closes the
// handle, returning the first failure.
func (k *stream) finish() error {
	k.drain()
	if k.writing && k.err == nil {
		k.call(dSync)
	}
	k.call(dClose)
	return k.err
}

// abandon drains the window and closes the handle without syncing: the
// operation already failed, so the stage drops whatever reads and
// writes of this stream it has not started yet.
func (k *stream) abandon() {
	k.gaveUp.Store(true)
	k.drain()
	k.call(dClose)
}

func (k *stream) report() (diskNanos, stallNanos int64) { return k.diskNanos, k.stall }
