package active

// Cross-backend conformance of cork-until-block (transport.Flusher): a
// window of asynchronous calls issued before the caller blocks, and a
// backlog of replies produced before the servant's queue runs dry, change
// framing only — not per-sender order, not the accounted traffic.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// corkBackends builds a fresh transport per run, so one scenario can run
// batched and unbatched on the same backend.
var corkBackends = []struct {
	name string
	new  func(t *testing.T) transport.Transport
}{
	{"simnet", func(*testing.T) transport.Transport { return simnet.New(simnet.Config{}) }},
	{"tcp", func(t *testing.T) transport.Transport {
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}},
}

// windowWorkload issues three windows of 32 asynchronous calls from one
// sender to one servant, waits for each window, checks the answers and
// the servant's arrival order, and returns the accounted traffic.
func windowWorkload(t *testing.T, e *Env) transport.Counters {
	t.Helper()
	const window, rounds = 32, 3
	caller, worker := e.NewNode(), e.NewNode()
	var mu sync.Mutex
	var arrived []int64
	local := worker.NewActive("seq", NewService(Method("seq", func(_ *Context, req int64) (int64, error) {
		mu.Lock()
		arrived = append(arrived, req)
		mu.Unlock()
		return -req, nil
	})))
	defer local.Release()
	remote, err := caller.HandleFor(local.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Release()
	stub := NewStub[int64, int64](remote, "seq")
	for r := 0; r < rounds; r++ {
		var futs [window]*TypedFuture[int64]
		for i := range futs {
			if futs[i], err = stub.Call(int64(r*window + i)); err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range futs {
			resp, err := f.Wait(10 * time.Second)
			if want := -int64(r*window + i); err != nil || resp != want {
				t.Fatalf("round %d call %d answered (%d, %v), want %d", r, i, resp, err, want)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrived) != window*rounds {
		t.Fatalf("%d requests served, want %d", len(arrived), window*rounds)
	}
	for i, got := range arrived {
		if got != int64(i) {
			t.Fatalf("request %d served at position %d (per-sender FIFO)", got, i)
		}
	}
	return e.Network().Snapshot()
}

// TestConformanceCorkedWindow: a corked window keeps per-sender FIFO and
// accounts, class by class, exactly the traffic of the unbatched run.
func TestConformanceCorkedWindow(t *testing.T) {
	for _, be := range corkBackends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			t.Parallel()
			run := func(batchWindow time.Duration) transport.Counters {
				e := NewEnv(Config{DisableDGC: true, Transport: be.new(t), BatchWindow: batchWindow})
				defer e.Close()
				return windowWorkload(t, e)
			}
			plain, corked := run(0), run(200*time.Microsecond)
			for class := transport.Class(1); class <= transport.NumClasses; class++ {
				if plain.Messages[class] != corked.Messages[class] || plain.Bytes[class] != corked.Bytes[class] {
					t.Errorf("%v: unbatched %d messages / %d bytes, corked %d / %d", class,
						plain.Messages[class], plain.Bytes[class], corked.Messages[class], corked.Bytes[class])
				}
			}
		})
	}
}

// frameCounter wraps a transport and counts, per (source, destination,
// class) route, the one-way frames its endpoints write and the messages
// those frames carry.
type frameCounter struct {
	transport.Transport
	mu           sync.Mutex
	frames, msgs map[route]int
}

type route struct {
	src, dst ids.NodeID
	class    transport.Class
}

func (c *frameCounter) Register(node ids.NodeID, h transport.Handler) transport.Endpoint {
	return &countedEndpoint{Endpoint: c.Transport.Register(node, h), c: c}
}

func (c *frameCounter) add(r route, frames, msgs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.msgs == nil {
		c.frames, c.msgs = make(map[route]int), make(map[route]int)
	}
	c.frames[r] += frames
	c.msgs[r] += msgs
}

// reset zeroes the counts.
func (c *frameCounter) reset() {
	c.mu.Lock()
	c.frames, c.msgs = nil, nil
	c.mu.Unlock()
}

// count sums the frames and messages over the routes keep accepts.
func (c *frameCounter) count(keep func(route) bool) (frames, msgs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r, k := range c.msgs {
		if keep(r) {
			frames += c.frames[r]
			msgs += k
		}
	}
	return frames, msgs
}

type countedEndpoint struct {
	transport.Endpoint
	c *frameCounter
}

func (e *countedEndpoint) Send(dst ids.NodeID, class transport.Class, payload []byte) error {
	e.c.add(route{e.Node(), dst, class}, 1, 1)
	return e.Endpoint.Send(dst, class, payload)
}

// SendBatch counts the frame under its first message's class (the
// scenario's frames are of one class each).
func (e *countedEndpoint) SendBatch(dst ids.NodeID, items []transport.BatchItem) error {
	frames := 1
	for _, it := range items {
		e.c.add(route{e.Node(), dst, it.Class}, frames, 1)
		frames = 0
	}
	return e.Endpoint.(transport.BatchSender).SendBatch(dst, items)
}

// TestConformanceCorkedBacklog: a servant that works through a queued
// backlog ships its replies when its queue runs dry — fewer frames than
// replies — and so does the caller that issued the backlog without
// blocking. Not parallel, and on one P: the goroutine a cork starts
// cannot run while the corking goroutine does, so the frame counts are
// the block points' doing and not a race won.
func TestConformanceCorkedBacklog(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, be := range corkBackends {
		t.Run(be.name, func(t *testing.T) {
			fc := &frameCounter{Transport: be.new(t)}
			e := NewEnv(Config{DisableDGC: true, Transport: fc, BatchWindow: 200 * time.Microsecond})
			defer e.Close()
			caller, worker := e.NewNode(), e.NewNode()
			gate := make(chan struct{})
			local := worker.NewActive("backlog", NewService(Method("hold", func(_ *Context, req int64) (int64, error) {
				if req == 0 {
					<-gate
				}
				return req, nil
			})))
			defer local.Release()
			remote, err := caller.HandleFor(local.Ref())
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Release()
			stub := NewStub[int64, int64](remote, "hold")
			const backlog = 32
			var futs [backlog]*TypedFuture[int64]
			for i := range futs {
				if futs[i], err = stub.Call(int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			id, _ := local.Ref().AsRef()
			servant, ok := e.activity(id)
			if !ok {
				t.Fatal("servant not found")
			}
			// The first request is in service, held at the gate; the rest queue.
			waitUntil(t, func() bool { return servant.queue.pendingCount() == backlog-1 }, 10*time.Second)
			close(gate)
			for i, f := range futs {
				if resp, err := f.Wait(10 * time.Second); err != nil || resp != int64(i) {
					t.Fatalf("call %d answered (%d, %v)", i, resp, err)
				}
			}
			for _, class := range []transport.Class{transport.ClassApp, transport.ClassFuture} {
				frames, msgs := fc.count(func(r route) bool { return r.class == class })
				if msgs != backlog || frames >= msgs {
					t.Errorf("%v: %d messages in %d frames, want %d messages in fewer frames", class, msgs, frames, backlog)
				}
			}
		})
	}
}
