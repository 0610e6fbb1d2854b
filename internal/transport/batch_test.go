package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
)

// TestBatchRoundTrip is the pack/unpack property test of the batch
// envelope: for randomized item sets (count, classes, payload sizes
// including empty), DecodeBatch(AppendBatch(items)) reproduces the items
// exactly, in order.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(17)
		items := make([]BatchItem, n)
		for i := range items {
			p := make([]byte, rng.Intn(64))
			rng.Read(p)
			items[i] = BatchItem{Class: Class(rng.Intn(int(NumClasses)) + 1), Payload: p}
		}
		enc := AppendBatch(nil, items)
		if got, want := len(enc), BatchSize(items); got != want {
			t.Fatalf("trial %d: encoded %d bytes, BatchSize says %d", trial, got, want)
		}
		dec, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(dec) != len(items) {
			t.Fatalf("trial %d: %d items decoded, want %d", trial, len(dec), len(items))
		}
		for i := range items {
			if dec[i].Class != items[i].Class || !bytes.Equal(dec[i].Payload, items[i].Payload) {
				t.Fatalf("trial %d item %d: %v != %v", trial, i, dec[i], items[i])
			}
		}
	}
}

// TestWalkBatchRejectsCorruption checks the decoder fails cleanly (no
// panic, no silent success) on truncated and trailing-garbage envelopes.
func TestWalkBatchRejectsCorruption(t *testing.T) {
	good := AppendBatch(nil, []BatchItem{
		{Class: ClassApp, Payload: []byte("abc")},
		{Class: ClassDGC, Payload: []byte("defgh")},
	})
	for cut := 0; cut < len(good); cut++ {
		if err := WalkBatch(good[:cut], func(Class, []byte) {}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := WalkBatch(append(good[:len(good):len(good)], 0), func(Class, []byte) {}); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := WalkBatch([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, func(Class, []byte) {}); err == nil {
		t.Fatal("absurd count accepted")
	}
}

// FuzzWalkBatch drives the envelope decoder with arbitrary bytes: it must
// never panic, and anything it accepts must survive a re-encode/re-decode
// round trip unchanged (uvarint lengths may be non-minimal in hostile
// input, so byte-level canonicality is not required — item-level fidelity
// is).
func FuzzWalkBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBatch(nil, nil))
	f.Add(AppendBatch(nil, []BatchItem{{Class: ClassApp, Payload: []byte("x")}}))
	f.Add(AppendBatch(nil, []BatchItem{
		{Class: ClassFuture, Payload: nil},
		{Class: ClassDGC, Payload: bytes.Repeat([]byte("y"), 40)},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeBatch(data)
		if err != nil {
			return
		}
		again, err := DecodeBatch(AppendBatch(nil, items))
		if err != nil {
			t.Fatalf("re-decode of accepted envelope failed: %v", err)
		}
		if len(again) != len(items) {
			t.Fatalf("round trip changed count: %d != %d", len(again), len(items))
		}
		for i := range items {
			if again[i].Class != items[i].Class || !bytes.Equal(again[i].Payload, items[i].Payload) {
				t.Fatalf("round trip changed item %d", i)
			}
		}
	})
}

// recordingEndpoint captures what a flusher writes, for order and
// batching assertions.
type recordingEndpoint struct {
	mu     sync.Mutex
	frames [][]BatchItem // one entry per Send (len 1) or SendBatch
	// entered, when set, receives once per one-way write before it is
	// recorded, and the write then waits for a token from release: the
	// test decides how long a lane's writer stays in flight.
	entered, release chan struct{}
}

func (r *recordingEndpoint) Node() ids.NodeID { return 1 }

func (r *recordingEndpoint) Send(dst ids.NodeID, class Class, payload []byte) error {
	return r.SendBatch(dst, []BatchItem{{Class: class, Payload: payload}})
}

func (r *recordingEndpoint) SendBatch(dst ids.NodeID, items []BatchItem) error {
	if r.entered != nil {
		r.entered <- struct{}{}
		<-r.release
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames = append(r.frames, append([]BatchItem(nil), items...))
	return nil
}

func (r *recordingEndpoint) Call(dst ids.NodeID, class Class, payload []byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames = append(r.frames, []BatchItem{{Class: class, Payload: append([]byte("call:"), payload...)}})
	return nil, nil
}

// frameSizes returns the number of messages in each recorded frame.
func (r *recordingEndpoint) frameSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sizes := make([]int, len(r.frames))
	for i, fr := range r.frames {
		sizes[i] = len(fr)
	}
	return sizes
}

// messages flattens the recorded frames into delivery order.
func (r *recordingEndpoint) messages() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, fr := range r.frames {
		for _, it := range fr {
			out = append(out, string(it.Payload))
		}
	}
	return out
}

// TestFlusherPreservesFIFO hammers one lane from a single sender and
// checks the flattened delivery order matches the send order, whatever
// framing the flusher chose; a Call issued afterwards must come last.
func TestFlusherPreservesFIFO(t *testing.T) {
	ep := &recordingEndpoint{}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Millisecond})
	defer fl.Close()
	const total = 200
	for i := 0; i < total; i++ {
		if err := fl.Send(2, ClassApp, []byte(fmt.Sprintf("m%03d", i)), i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fl.Call(2, ClassDGC, []byte("x")); err != nil {
		t.Fatal(err)
	}
	msgs := ep.messages()
	if len(msgs) != total+1 {
		t.Fatalf("%d messages delivered, want %d", len(msgs), total+1)
	}
	for i := 0; i < total; i++ {
		if want := fmt.Sprintf("m%03d", i); msgs[i] != want {
			t.Fatalf("position %d: %q, want %q (FIFO violated)", i, msgs[i], want)
		}
	}
	if msgs[total] != "call:x" {
		t.Fatalf("call delivered at %q, want last", msgs[total])
	}
}

// TestFlusherCloseFlushes checks Close writes out lingering traffic
// instead of dropping it.
func TestFlusherCloseFlushes(t *testing.T) {
	ep := &recordingEndpoint{}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Hour}) // linger ~forever
	for i := 0; i < 5; i++ {
		if err := fl.Send(2, ClassApp, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	fl.Close()
	if got := len(ep.messages()); got != 5 {
		t.Fatalf("%d messages after Close, want 5 (flush-on-close)", got)
	}
	if err := fl.Send(2, ClassApp, []byte("late"), true); err == nil {
		t.Fatal("send accepted after Close")
	}
}

// TestFlusherCoalesces checks that non-urgent messages lingering in the
// window go out together: the lane's writer waits for companions, so a
// burst of 8 leaves as one frame when Close rushes it.
func TestFlusherCoalesces(t *testing.T) {
	ep := &recordingEndpoint{}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Hour})
	for i := 0; i < 8; i++ {
		if err := fl.Send(2, ClassApp, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	fl.Close()
	if got := ep.frameSizes(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("burst of 8 went out as frames %v, want one frame of 8", got)
	}
}

// onOneP pins the test to one P. The goroutine a cork starts as its
// progress guarantee then cannot run before the test goroutine blocks, so
// whatever is on the endpoint earlier was written by the block point
// under test, and a burst cannot be split by an early drainer.
func onOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func sendUrgent(t *testing.T, fl *Flusher, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := fl.Send(2, ClassApp, []byte(fmt.Sprintf("m%03d", i)), true); err != nil {
			t.Fatal(err)
		}
	}
}

func wantInOrder(t *testing.T, msgs []string, n int) {
	t.Helper()
	if len(msgs) != n {
		t.Fatalf("%d messages delivered, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		if want := fmt.Sprintf("m%03d", i); m != want {
			t.Fatalf("position %d: %q, want %q (FIFO violated)", i, m, want)
		}
	}
}

// TestFlusherCorkedBurstIsOneFrame: urgent sends from one goroutine stay
// corked until its block point, which ships them as one batch, in order.
func TestFlusherCorkedBurstIsOneFrame(t *testing.T) {
	onOneP(t)
	ep := &recordingEndpoint{}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Millisecond})
	defer fl.Close()
	const burst = 32
	sendUrgent(t, fl, 0, burst)
	if got := ep.frameSizes(); len(got) != 0 {
		t.Fatalf("frames %v written before the sender blocked", got)
	}
	fl.FlushPending()
	if got := ep.frameSizes(); len(got) != 1 || got[0] != burst {
		t.Fatalf("frames %v after FlushPending, want one of %d", got, burst)
	}
	wantInOrder(t, ep.messages(), burst)
	if n := fl.corked.Load(); n != 0 {
		t.Fatalf("%d lanes still counted corked", n)
	}
}

// TestFlusherCorkProgress: an urgent message whose sender never reaches
// a block point is written anyway.
func TestFlusherCorkProgress(t *testing.T) {
	ep := &recordingEndpoint{entered: make(chan struct{}), release: make(chan struct{}, 1)}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Hour})
	defer fl.Close()
	ep.release <- struct{}{}
	sendUrgent(t, fl, 0, 1)
	select {
	case <-ep.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("corked message never written without a block point")
	}
}

// TestFlusherCallBehindCork: an exchange never overtakes a corked message
// to the same destination, whoever ends up writing the lane.
func TestFlusherCallBehindCork(t *testing.T) {
	for round := 0; round < 200; round++ {
		ep := &recordingEndpoint{}
		fl := NewFlusher(ep, FlusherConfig{Window: time.Millisecond})
		sendUrgent(t, fl, 0, 2)
		if _, err := fl.Call(2, ClassDGC, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ep.messages()); got != "[m000 m001 call:x]" {
			t.Fatalf("round %d: delivered %s", round, got)
		}
		fl.Close()
	}
}

// TestFlusherFlushAndCloseWriteCorked: Flush writes a corked lane itself;
// Close returns only once every corked lane is on the endpoint.
func TestFlusherFlushAndCloseWriteCorked(t *testing.T) {
	onOneP(t)
	ep := &recordingEndpoint{}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Hour})
	sendUrgent(t, fl, 0, 2)
	fl.Flush(2)
	if got := ep.frameSizes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("frames %v after Flush, want one of 2", got)
	}
	sendUrgent(t, fl, 2, 5)
	fl.Close()
	wantInOrder(t, ep.messages(), 5)
}

// TestFlusherWriterInFlightCoalesces: messages that find the lane's
// writer busy ride its next frame together.
func TestFlusherWriterInFlightCoalesces(t *testing.T) {
	ep := &recordingEndpoint{entered: make(chan struct{}), release: make(chan struct{})}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Hour})
	sendUrgent(t, fl, 0, 1)
	<-ep.entered // the writer is inside the endpoint with m000
	sendUrgent(t, fl, 1, 9)
	ep.release <- struct{}{}
	<-ep.entered
	ep.release <- struct{}{}
	fl.Close()
	if got := fmt.Sprint(ep.frameSizes()); got != "[1 8]" {
		t.Fatalf("frame sizes %s, want [1 8]", got)
	}
	wantInOrder(t, ep.messages(), 9)
}

// countingEndpoint counts frames and the messages they carry.
type countingEndpoint struct{ frames, items atomic.Int64 }

func (*countingEndpoint) Node() ids.NodeID { return 1 }

func (*countingEndpoint) Call(ids.NodeID, Class, []byte) ([]byte, error) { return nil, nil }

func (c *countingEndpoint) Send(ids.NodeID, Class, []byte) error {
	c.frames.Add(1)
	c.items.Add(1)
	return nil
}

func (c *countingEndpoint) SendBatch(_ ids.NodeID, items []BatchItem) error {
	c.frames.Add(1)
	c.items.Add(int64(len(items)))
	return nil
}

// BenchmarkFlusherBurst is the window workload's send side in miniature:
// 32 urgent sends to one destination, then the block point. items/frame
// is the coalescing the cork buys: 32, less when the cork's own goroutine
// claims a burst early, more when it is still writing as the next lands.
func BenchmarkFlusherBurst(b *testing.B) {
	ep := &countingEndpoint{}
	fl := NewFlusher(ep, FlusherConfig{Window: time.Millisecond})
	defer fl.Close()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 32; k++ {
			if err := fl.Send(2, ClassApp, payload, true); err != nil {
				b.Fatal(err)
			}
		}
		fl.FlushPending()
	}
	b.StopTimer()
	fl.Close()
	b.ReportMetric(float64(ep.items.Load())/float64(ep.frames.Load()), "items/frame")
}
