package transport_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// counter is a handler counting what reaches it.
type counter struct{ got atomic.Int32 }

func (c *counter) HandleOneWay(ids.NodeID, transport.Class, []byte) { c.got.Add(1) }
func (c *counter) HandleCall(ids.NodeID, transport.Class, []byte) []byte {
	c.got.Add(1)
	return []byte("r")
}

// backends builds each substrate the runtime runs over.
var backends = []struct {
	name string
	open func(t *testing.T) transport.Transport
}{
	{"simnet", func(*testing.T) transport.Transport { return simnet.New(simnet.Config{}) }},
	{"tcpnet", func(t *testing.T) transport.Transport {
		n, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}},
}

// entries are the three endpoint entry points, each reduced to "send
// something to dst"; wantGot is what the destination handler counts.
var entries = []struct {
	name    string
	wantGot int32
	do      func(ep transport.Endpoint, dst ids.NodeID) error
}{
	{"Send", 1, func(ep transport.Endpoint, dst ids.NodeID) error {
		return ep.Send(dst, transport.ClassApp, []byte("m"))
	}},
	{"SendBatch", 2, func(ep transport.Endpoint, dst ids.NodeID) error {
		return ep.(transport.BatchSender).SendBatch(dst, []transport.BatchItem{
			{Class: transport.ClassApp, Payload: []byte("a")},
			{Class: transport.ClassDGC, Payload: []byte("b")},
		})
	}},
	{"Call", 1, func(ep transport.Endpoint, dst ids.NodeID) error {
		_, err := ep.Call(dst, transport.ClassDGC, []byte("m"))
		return err
	}},
}

// TestEndpointContract holds Send, SendBatch and Call to the route step
// both backends share: same-node traffic is delivered directly and not
// accounted (paper §5), an unknown node is ErrUnknownNode with nothing
// accounted, and a closed substrate is ErrClosed.
func TestEndpointContract(t *testing.T) {
	for _, b := range backends {
		for _, op := range entries {
			t.Run(b.name+"/"+op.name, func(t *testing.T) {
				tr := b.open(t)
				defer tr.Close()
				var self counter
				ep := tr.Register(1, &self)
				tr.Register(2, &counter{})

				if err := op.do(ep, 1); err != nil {
					t.Fatalf("to self: %v", err)
				}
				if got := self.got.Load(); got != op.wantGot {
					t.Fatalf("to self: handler saw %d deliveries, want %d", got, op.wantGot)
				}
				if err := op.do(ep, 99); !errors.Is(err, transport.ErrUnknownNode) {
					t.Fatalf("to unknown node: err = %v, want ErrUnknownNode", err)
				}
				if c := tr.Snapshot(); c.Total() != 0 || messages(c) != 0 {
					t.Fatalf("accounted %d B in %d messages, want none", c.Total(), messages(c))
				}

				tr.Close()
				if err := op.do(ep, 2); !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("after Close: err = %v, want ErrClosed", err)
				}
			})
		}
	}
}

func messages(c transport.Counters) uint64 {
	var n uint64
	for _, m := range c.Messages {
		n += m
	}
	return n
}
