package main

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// plainTransport offers neither optional interface: its endpoints cannot
// batch and it is not process-addressable.
type plainTransport struct{ transport.Transport }

func (plainTransport) Register(ids.NodeID, transport.Handler) transport.Endpoint {
	return nullEndpoint{}
}

// TestTraceTransportKeepsOptionalInterfaces: the decorator offers
// BatchSender and ProcessCaller exactly when the transport it wraps does.
func TestTraceTransportKeepsOptionalInterfaces(t *testing.T) {
	var nt netTimes
	tcp, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	sim := simnet.New(simnet.Config{})
	defer sim.Close()
	for _, c := range []struct {
		name              string
		inner             transport.Transport
		batches, processy bool
	}{
		{"tcpnet", tcp, true, true},
		{"simnet", sim, true, false},
		{"plain", plainTransport{}, false, false},
	} {
		traced := traceTransport(c.inner, &nt)
		if _, ok := traced.(transport.ProcessCaller); ok != c.processy {
			t.Errorf("%s: traced transport is a ProcessCaller: %v, want %v", c.name, ok, c.processy)
		}
		ep := traced.Register(1, nullHandler{})
		if _, ok := ep.(transport.BatchSender); ok != c.batches {
			t.Errorf("%s: traced endpoint is a BatchSender: %v, want %v", c.name, ok, c.batches)
		}
	}
}

// TestTracingDoesNotRerouteTraffic: under the decorating transport
// window-tcp still ships batches of more than one item, and every servant
// still sees each sender's requests in order.
func TestTracingDoesNotRerouteTraffic(t *testing.T) {
	w := findWorkload("window-tcp")
	const measure = 300 * time.Millisecond
	tr := newTracer(measure)
	res, err := runRound(w, 5, measure, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.ops == 0 {
		t.Fatalf("%d operations, %d failed: %v", res.ops, res.failed, res.errs)
	}
	frames, items := tr.net.sendBatch.n.Load(), tr.net.batchItems.Load()
	if frames == 0 || items <= frames {
		t.Errorf("%d batch frames carrying %d items: the flusher no longer coalesces under tracing", frames, items)
	}
	if got := tr.net.itemsPerFrame(); got <= 1 {
		t.Errorf("items per frame = %v, want above 1", got)
	}
	if st := tr.stages(); st.n == 0 || st.latency <= 0 {
		t.Errorf("no complete spans: %+v", st)
	}
}
