package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// Tracing is done entirely from outside the runtime: client spans around
// Stub.Call and TypedFuture.Wait, a servant span inside the benchmark's
// own method, and a decorating transport that times every call the
// runtime makes into an Endpoint and every delivery the substrate makes
// into the runtime's Handler. Spans inside the runtime are a later change.

// seqShift splits a request's Seq into (worker, per-worker index), so the
// servant can find the span its client opened without a lookup table.
const seqShift = 40

func makeSeq(worker, n int) int64 { return int64(worker)<<seqShift | int64(n) }

func splitSeq(seq int64) (worker, n int) {
	return int(seq >> seqShift), int(seq & (1<<seqShift - 1))
}

// span is one traced operation; all times are nanoseconds since the
// tracer's epoch. issue = min(t1,t2)-t0, request transit = t2-min(t1,t2),
// method = t3-t2, reply transit = t4-t3: the four stages telescope to the
// operation's latency t4-t0 by construction.
type span struct {
	t0 int64 // client: before Stub.Call
	t1 int64 // client: Stub.Call returned
	t2 int64 // servant: method entered
	t3 int64 // servant: method about to return
	t4 int64 // client: TypedFuture.Wait returned
}

// tracer holds one traced round's spans and transport timings in memory.
type tracer struct {
	epoch time.Time
	spans [loadWorkers][]span
	// skipped counts operations past the preallocated span tables.
	skipped atomic.Int64
	net     netTimes
}

// newTracer preallocates span tables for a round of the given length;
// 150 k operations per second per worker is twice what this runtime
// reaches here, and an operation beyond the table is counted, not traced.
func newTracer(measure time.Duration) *tracer {
	t := &tracer{epoch: time.Now()}
	per := int(measure.Seconds()*150_000) + 50_000
	for w := range t.spans {
		t.spans[w] = make([]span, per)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// span returns the span of seq, or nil when tracing is off, seq names no
// span (negative), or the table is full.
func (t *tracer) span(seq int64) *span {
	if t == nil || seq < 0 {
		return nil
	}
	w, n := splitSeq(seq)
	if w >= loadWorkers || n >= len(t.spans[w]) {
		t.skipped.Add(1)
		return nil
	}
	return &t.spans[w][n]
}

// stageMeans are the mean stage durations of the completed spans, in
// microseconds; issue+request+method+reply equals latency exactly.
type stageMeans struct {
	n                                      int
	issue, request, method, reply, latency float64
}

func (t *tracer) stages() stageMeans {
	var m stageMeans
	var issue, request, method, reply int64
	for w := range t.spans {
		for i := range t.spans[w] {
			s := &t.spans[w][i]
			if s.t4 == 0 || s.t2 == 0 {
				continue // never completed, or served by an untraced method
			}
			sent := min(s.t1, s.t2)
			issue += sent - s.t0
			request += s.t2 - sent
			method += s.t3 - s.t2
			reply += s.t4 - s.t3
			m.n++
		}
	}
	if m.n == 0 {
		return m
	}
	n := float64(m.n) * 1e3
	m.issue, m.request, m.method, m.reply = float64(issue)/n, float64(request)/n, float64(method)/n, float64(reply)/n
	m.latency = float64(issue+request+method+reply) / n
	return m
}

// writeSpans writes the completed spans as CSV (at most maxRows, evenly
// thinned) to the temp directory and returns the file's path.
func (t *tracer) writeSpans(workload string, maxRows int) (string, error) {
	path := filepath.Join(os.TempDir(), "dgcbench-spans-"+workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker,index,call_ns,call_returned_ns,method_start_ns,method_end_ns,resolved_ns")
	var total int
	for wk := range t.spans {
		for i := range t.spans[wk] {
			if t.spans[wk][i].t4 != 0 {
				total++
			}
		}
	}
	step := max(1, total/maxRows)
	var seen int
	for wk := range t.spans {
		for i := range t.spans[wk] {
			s := &t.spans[wk][i]
			if s.t4 == 0 {
				continue
			}
			if seen%step == 0 {
				fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d\n", wk, i, s.t0, s.t1, s.t2, s.t3, s.t4)
			}
			seen++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// timed is a count and a total duration, updated from many goroutines.
type timed struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (t *timed) since(start time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

// meanUs is the mean duration in microseconds, 0 when nothing was timed.
func (t *timed) meanUs() float64 {
	if n := t.n.Load(); n > 0 {
		return float64(t.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// netTimes is what the decorating transport measures: time inside the
// substrate's Endpoint methods (outbound) and inside the runtime's
// Handler methods (inbound decode and enqueue, on the transport's
// goroutine), plus the frame and item counts batching is judged by.
type netTimes struct {
	send, call, sendBatch timed
	handleOneWay, handle  timed
	batchItems            atomic.Int64 // items carried by SendBatch frames
}

// itemsPerFrame is one-way messages per one-way frame: 1 when nothing
// ever coalesced.
func (n *netTimes) itemsPerFrame() float64 {
	frames := n.send.n.Load() + n.sendBatch.n.Load()
	if frames == 0 {
		return 0
	}
	return float64(n.send.n.Load()+n.batchItems.Load()) / float64(frames)
}

// tracedTransport decorates a Transport so that every endpoint it hands
// out, and every handler it is given, is timed.
type tracedTransport struct {
	transport.Transport
	nt *netTimes
}

// tracedProcessTransport additionally forwards transport.ProcessCaller,
// which the cluster runtime type-asserts on the environment's transport.
type tracedProcessTransport struct {
	*tracedTransport
	transport.ProcessCaller
}

// traceTransport wraps inner, keeping every optional interface inner
// offers: hiding one would make the traced run take another code path.
func traceTransport(inner transport.Transport, nt *netTimes) transport.Transport {
	tt := &tracedTransport{Transport: inner, nt: nt}
	if pc, ok := inner.(transport.ProcessCaller); ok {
		return &tracedProcessTransport{tracedTransport: tt, ProcessCaller: pc}
	}
	return tt
}

func (t *tracedTransport) Register(node ids.NodeID, h transport.Handler) transport.Endpoint {
	ep := t.Transport.Register(node, &tracedHandler{Handler: h, nt: t.nt})
	te := tracedEndpoint{Endpoint: ep, nt: t.nt}
	if bs, ok := ep.(transport.BatchSender); ok {
		// The flusher type-asserts BatchSender on its endpoint and falls
		// back to one Send per message without it.
		return &tracedBatchEndpoint{tracedEndpoint: te, bs: bs}
	}
	return &te
}

type tracedHandler struct {
	transport.Handler
	nt *netTimes
}

func (h *tracedHandler) HandleOneWay(from ids.NodeID, class transport.Class, payload []byte) {
	start := time.Now()
	h.Handler.HandleOneWay(from, class, payload)
	h.nt.handleOneWay.since(start)
}

func (h *tracedHandler) HandleCall(from ids.NodeID, class transport.Class, payload []byte) []byte {
	start := time.Now()
	resp := h.Handler.HandleCall(from, class, payload)
	h.nt.handle.since(start)
	return resp
}

type tracedEndpoint struct {
	transport.Endpoint
	nt *netTimes
}

func (e *tracedEndpoint) Send(dst ids.NodeID, class transport.Class, payload []byte) error {
	start := time.Now()
	err := e.Endpoint.Send(dst, class, payload)
	e.nt.send.since(start)
	return err
}

func (e *tracedEndpoint) Call(dst ids.NodeID, class transport.Class, payload []byte) ([]byte, error) {
	start := time.Now()
	resp, err := e.Endpoint.Call(dst, class, payload)
	e.nt.call.since(start)
	return resp, err
}

type tracedBatchEndpoint struct {
	tracedEndpoint
	bs transport.BatchSender
}

func (e *tracedBatchEndpoint) SendBatch(dst ids.NodeID, items []transport.BatchItem) error {
	start := time.Now()
	err := e.bs.SendBatch(dst, items)
	e.nt.sendBatch.since(start)
	e.nt.batchItems.Add(int64(len(items)))
	return err
}
