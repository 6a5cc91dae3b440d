package core

import (
	"sync/atomic"
	"time"

	"panda/internal/obs"
)

// obs.go is the core-side observability glue: per-node instrument
// handles resolved once at node construction, so the hot path pays a
// nil check — never a map lookup — per event.

// nodeMetrics caches a node's instruments. With Config.Metrics nil
// every field is nil and every use is a no-op (obs instruments are
// nil-safe).
type nodeMetrics struct {
	msgsSent, bytesSent *obs.Counter
	msgsRecv, bytesRecv *obs.Counter
	reorgBytes          *obs.Counter
	timeouts, retries   *obs.Counter
	aborts              *obs.Counter
	// contigBytes vs reorgBytes splits every byte moved by data
	// placement into contiguous fast-path and strided traffic;
	// packNanos is the real (host) time spent inside strided pack
	// copies; framesCoalesced counts zero-copy scatter-gather sends.
	contigBytes     *obs.Counter
	packNanos       *obs.Counter
	framesCoalesced *obs.Counter
	// planHits / planMisses count plan-cache consultations.
	planHits, planMisses *obs.Counter
	// reassigns, rollForwards and degraded count recovery events: replan
	// rounds launched, interrupted commits finished at read time, and
	// collectives completed with dead participants.
	reassigns, rollForwards, degraded *obs.Counter
	// subLatency observes sub-chunk service time: write pulls from
	// first request to retirement, read sub-chunks from disk fetch to
	// last piece sent.
	subLatency *obs.Histogram
	// recvWait observes time blocked waiting for a protocol message —
	// the node-local flavour of message latency.
	recvWait *obs.Histogram
	// queueDepth observes an operation's outstanding requests at the
	// storage stage at every hand-off.
	queueDepth *obs.Histogram
	// Scheduler instruments: frames refused by op-ID screening, ops
	// refused at admission, adjacent disk requests merged across the
	// batch queue, and live occupancy of the admission queue and the
	// in-flight dispatch window.
	framesRejected *obs.Counter
	schedBusy      *obs.Counter
	diskMerges     *obs.Counter
	schedQueue     *obs.Gauge
	schedInflight  *obs.Gauge
}

func newNodeMetrics(r *obs.Registry) nodeMetrics {
	if r == nil {
		return nodeMetrics{}
	}
	return nodeMetrics{
		msgsSent:        r.Counter("msgs_sent"),
		bytesSent:       r.Counter("bytes_sent"),
		msgsRecv:        r.Counter("msgs_recv"),
		bytesRecv:       r.Counter("bytes_recv"),
		reorgBytes:      r.Counter("reorg_bytes"),
		contigBytes:     r.Counter("contig_bytes"),
		packNanos:       r.Counter("pack_ns"),
		framesCoalesced: r.Counter("frames_coalesced"),
		planHits:        r.Counter("plan_cache_hits"),
		planMisses:      r.Counter("plan_cache_misses"),
		timeouts:        r.Counter("timeouts"),
		retries:         r.Counter("retries"),
		aborts:          r.Counter("aborts"),
		reassigns:       r.Counter("reassigns"),
		rollForwards:    r.Counter("roll_forwards"),
		degraded:        r.Counter("degraded_ops"),
		subLatency:      r.Histogram("subchunk_latency_ns", obs.LatencyBounds),
		recvWait:        r.Histogram("recv_wait_ns", obs.LatencyBounds),
		queueDepth:      r.Histogram("stage_queue_depth", obs.DepthBounds),
		framesRejected:  r.Counter("sched_frames_rejected"),
		schedBusy:       r.Counter("sched_busy_rejects"),
		diskMerges:      r.Counter("sched_disk_merges"),
		schedQueue:      r.Gauge("sched_queue_depth"),
		schedInflight:   r.Gauge("sched_inflight_ops"),
	}
}

// opName renders an operation kind for traces and summaries.
func opName(op byte) string {
	switch op {
	case opWrite:
		return "write"
	case opRead:
		return "read"
	}
	return "?"
}

// snapshot returns a race-clean copy of the counters: every field is
// loaded atomically, matching the atomic increments on the mutation
// side, so Stats() may be called from any goroutine at any time —
// including mid-operation and during aborts.
func (st *Stats) snapshot() Stats {
	return Stats{
		MsgsSent:        atomic.LoadInt64(&st.MsgsSent),
		BytesSent:       atomic.LoadInt64(&st.BytesSent),
		MsgsRecv:        atomic.LoadInt64(&st.MsgsRecv),
		BytesRecv:       atomic.LoadInt64(&st.BytesRecv),
		ReorgBytes:      atomic.LoadInt64(&st.ReorgBytes),
		Timeouts:        atomic.LoadInt64(&st.Timeouts),
		Retries:         atomic.LoadInt64(&st.Retries),
		Aborts:          atomic.LoadInt64(&st.Aborts),
		Reassigns:       atomic.LoadInt64(&st.Reassigns),
		RollForwards:    atomic.LoadInt64(&st.RollForwards),
		Degraded:        atomic.LoadInt64(&st.Degraded),
		OverlapNanos:    atomic.LoadInt64(&st.OverlapNanos),
		StallNanos:      atomic.LoadInt64(&st.StallNanos),
		ContigBytes:     atomic.LoadInt64(&st.ContigBytes),
		FramesCoalesced: atomic.LoadInt64(&st.FramesCoalesced),
		PlanHits:        atomic.LoadInt64(&st.PlanHits),
		PlanMisses:      atomic.LoadInt64(&st.PlanMisses),
		FramesRejected:  atomic.LoadInt64(&st.FramesRejected),
		SchedBusy:       atomic.LoadInt64(&st.SchedBusy),
		DiskMerges:      atomic.LoadInt64(&st.DiskMerges),
	}
}

// merge atomically folds a finished operation's private counters into
// the node-global totals. The scheduler's router calls it once per op,
// after the op's executor has quiesced, so per-op snapshots always sum
// (with the router's own control traffic) to the global counters.
func (st *Stats) merge(op *Stats) {
	o := op.snapshot()
	atomic.AddInt64(&st.MsgsSent, o.MsgsSent)
	atomic.AddInt64(&st.BytesSent, o.BytesSent)
	atomic.AddInt64(&st.MsgsRecv, o.MsgsRecv)
	atomic.AddInt64(&st.BytesRecv, o.BytesRecv)
	atomic.AddInt64(&st.ReorgBytes, o.ReorgBytes)
	atomic.AddInt64(&st.Timeouts, o.Timeouts)
	atomic.AddInt64(&st.Retries, o.Retries)
	atomic.AddInt64(&st.Aborts, o.Aborts)
	atomic.AddInt64(&st.Reassigns, o.Reassigns)
	atomic.AddInt64(&st.RollForwards, o.RollForwards)
	atomic.AddInt64(&st.Degraded, o.Degraded)
	atomic.AddInt64(&st.OverlapNanos, o.OverlapNanos)
	atomic.AddInt64(&st.StallNanos, o.StallNanos)
	atomic.AddInt64(&st.ContigBytes, o.ContigBytes)
	atomic.AddInt64(&st.FramesCoalesced, o.FramesCoalesced)
	atomic.AddInt64(&st.PlanHits, o.PlanHits)
	atomic.AddInt64(&st.PlanMisses, o.PlanMisses)
	atomic.AddInt64(&st.FramesRejected, o.FramesRejected)
	atomic.AddInt64(&st.SchedBusy, o.SchedBusy)
	atomic.AddInt64(&st.DiskMerges, o.DiskMerges)
}

// packStart begins timing one pack/unpack copy when metrics are on; it
// returns the zero time otherwise. Host wall time, not the node clock:
// under virtual time a copy is instantaneous on the simulated clock,
// and its real CPU cost is exactly what this metric exposes.
func (m *nodeMetrics) packStart() time.Time {
	if m.packNanos == nil {
		return time.Time{}
	}
	return time.Now()
}

// packDone closes a packStart interval.
func (m *nodeMetrics) packDone(t0 time.Time) {
	if m.packNanos == nil {
		return
	}
	m.packNanos.Add(time.Since(t0).Nanoseconds())
}
