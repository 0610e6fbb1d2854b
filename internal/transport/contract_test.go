package transport_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// fifoCheck counts per-sender sequence numbers as they arrive: payload
// [sender, seq hi, seq lo].
type fifoCheck struct {
	mu   sync.Mutex
	next map[byte]int
	got  int
	want int
	bad  string
	done chan struct{}
}

func (f *fifoCheck) HandleOneWay(_ ids.NodeID, _ transport.Class, p []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, seq := p[0], int(p[1])<<8|int(p[2])
	if seq != f.next[g] && f.bad == "" {
		f.bad = fmt.Sprintf("sender %d: got seq %d, want %d", g, seq, f.next[g])
	}
	f.next[g] = seq + 1
	if f.got++; f.got == f.want {
		close(f.done)
	}
}

func (f *fifoCheck) HandleCall(ids.NodeID, transport.Class, []byte) []byte { return nil }

// TestPairFIFOConcurrentSenders races 8 goroutines of one node sending to
// one destination: each goroutine's messages arrive in the order it sent
// them, whoever ends up delivering them.
func TestPairFIFOConcurrentSenders(t *testing.T) {
	const senders, per = 8, 300
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			tr := b.open(t)
			defer tr.Close()
			rx := &fifoCheck{next: map[byte]int{}, want: senders * per, done: make(chan struct{})}
			tr.Register(2, rx)
			ep := tr.Register(1, &counter{})
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g byte) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := ep.Send(2, transport.ClassApp, []byte{g, byte(i >> 8), byte(i)}); err != nil {
							t.Error(err)
							return
						}
					}
				}(byte(g))
			}
			wg.Wait()
			select {
			case <-rx.done:
			case <-time.After(10 * time.Second):
				t.Fatalf("delivered %d of %d", rx.count(), senders*per)
			}
			rx.mu.Lock()
			defer rx.mu.Unlock()
			if rx.bad != "" {
				t.Fatal(rx.bad)
			}
		})
	}
}

func (f *fifoCheck) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.got
}

// chain is the shared state of a callback chain: its plan, whether the
// last hop arrived, and how many hops' sends have returned.
type chain struct {
	t        *testing.T
	plan     string
	arrived  chan struct{}
	returned chan struct{}
	sent     atomic.Int32
}

// chainer is one node of a chain. On hop d it sends hop d+1 to its peer,
// by Send or Call as plan[d] says.
type chainer struct {
	*chain
	ep   transport.Endpoint
	peer ids.NodeID
}

func (c *chainer) hop(d byte) {
	if int(d) == len(c.plan) {
		close(c.arrived)
		return
	}
	var err error
	if c.plan[d] == 'C' {
		_, err = c.ep.Call(c.peer, transport.ClassApp, []byte{d + 1})
	} else {
		err = c.ep.Send(c.peer, transport.ClassApp, []byte{d + 1})
	}
	if err != nil {
		c.t.Errorf("hop %d: %v", d+1, err)
	}
	if int(c.sent.Add(1)) == len(c.plan) {
		close(c.returned)
	}
}

func (c *chainer) HandleOneWay(_ ids.NodeID, _ transport.Class, p []byte) { c.hop(p[0]) }

func (c *chainer) HandleCall(_ ids.NodeID, _ transport.Class, p []byte) []byte {
	c.hop(p[0])
	return []byte{p[0]}
}

// TestCallbackChain runs three-hop chains A→B→A→B from handlers, one-way
// sends and Calls mixed, on both backends. A chain whose last two hops are
// both Calls is left out: its third hop waits for a delivery on the pair
// its first hop is still being delivered on, which the Handler contract
// rules out.
func TestCallbackChain(t *testing.T) {
	for _, b := range backends {
		for _, plan := range []string{"SSS", "SSC", "SCS", "CSS", "CSC", "CCS"} {
			t.Run(b.name+"/"+plan, func(t *testing.T) {
				tr := b.open(t)
				defer tr.Close()
				ch := &chain{t: t, plan: plan, arrived: make(chan struct{}), returned: make(chan struct{})}
				a := &chainer{chain: ch, peer: 2}
				bb := &chainer{chain: ch, peer: 1}
				a.ep = tr.Register(1, a)
				bb.ep = tr.Register(2, bb)
				a.hop(0)
				timeout := time.After(10 * time.Second)
				for _, c := range []chan struct{}{ch.arrived, ch.returned} {
					select {
					case <-c:
					case <-timeout:
						t.Fatalf("chain stuck after %d of %d sends returned", ch.sent.Load(), len(plan))
					}
				}
			})
		}
	}
}
