package core

// FuzzDGCRecord aims the fuzzer at the DGC record decoders (WIRE.md §3):
// one message record on its own, and a message record followed by a
// response record read against that message's clock. Both read bytes a
// hostile or corrupted peer controls. Neither may panic, every refusal
// must carry the reader's sentinel, and anything accepted must re-encode
// to the very bytes it was read from: each record has one encoding.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/wire"
)

// malformedRecords are records the decoders must refuse, each a message
// record with, where resp is set, a response record behind it.
var malformedRecords = []struct {
	name string
	resp bool
	data []byte
}{
	{"non-minimal uvarint", false, []byte{0x82, 0x00, 7, 1, 3, 0, 42, 2, 7}},
	{"node past 32 bits", false, []byte{0xff, 0xff, 0xff, 0xff, 0x10, 1, 1, 3, 2, 42}},
	{"unknown message flag", false, []byte{2, 7, 1, 3, 0x84, 42, 2, 7}},
	{"owner spelled out though it is the sender", false, []byte{2, 7, 1, 3, 0, 42, 1, 3}},
	{"short message", false, []byte{2, 7, 1, 3, 0, 42, 2}},
	{"unknown response flag", true, []byte{2, 7, 1, 3, 2, 42, 0x19, 0}},
	{"flags on an absent response", true, []byte{2, 7, 1, 3, 2, 42, 0x02}},
	{"clock spelled out though it is the message's", true, []byte{2, 7, 1, 3, 2, 42, 0x01, 42, 1, 3, 0}},
	{"depth past 32 bits", true, []byte{2, 7, 1, 3, 2, 42, 0x09, 0x80, 0x80, 0x80, 0x80, 0x10}},
	{"short response", true, []byte{2, 7, 1, 3, 2, 42, 0x01, 43, 1}},
}

// TestDGCRecordRefusals: each malformed record is refused with the
// reader's sentinel.
func TestDGCRecordRefusals(t *testing.T) {
	bad := errors.New("bad record")
	for _, c := range malformedRecords {
		var r wire.Reader
		r.Reset(c.data, bad)
		ob := ReadMessage(&r)
		if c.resp {
			ReadResponse(&r, ob.Msg.Clock)
		}
		if err := r.Done(); err != bad {
			t.Errorf("%s: %x read with %v, want the sentinel", c.name, c.data, err)
		}
	}
}

func FuzzDGCRecord(f *testing.F) {
	a13, a27 := ids.ActivityID{Node: 1, Seq: 3}, ids.ActivityID{Node: 2, Seq: 7}
	ob := Outbound{To: a27, Msg: Message{Sender: a13, Clock: lamport.Clock{Value: 42, Owner: a27}, Consensus: true}}
	own := Outbound{To: a27, Msg: Message{Sender: a13, Clock: lamport.Clock{Value: 1 << 33, Owner: a13}}}
	f.Add(AppendMessage(nil, ob))
	f.Add(AppendResponse(AppendMessage(nil, ob), &Response{Clock: ob.Msg.Clock, HasParent: true, Depth: 3}, ob.Msg.Clock))
	f.Add(AppendResponse(AppendMessage(nil, own), &Response{Clock: ob.Msg.Clock, ConsensusReached: true}, own.Msg.Clock))
	f.Add(AppendResponse(AppendMessage(nil, own), nil, own.Msg.Clock))
	f.Add([]byte{0x80, 0x00, 7, 1, 3, 0, 42})                  // non-minimal target node
	f.Add([]byte{2, 7, 1, 3, 0x84, 42})                        // unknown message flag
	f.Add([]byte{2, 7, 1, 3, 0, 42, 1, 3})                     // owner spelled out though it is the sender
	f.Add([]byte{2, 7, 1, 3, 2, 42, 0x11, 0})                  // unknown response flag
	f.Add([]byte{2, 7, 1, 3, 2, 42, 0x01, 42, 1, 3, 0})        // clock spelled out though it is the message's
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x10, 1, 1, 1, 2, 0}) // node past 32 bits

	f.Fuzz(func(t *testing.T, data []byte) {
		bad := errors.New("bad record")
		var r wire.Reader
		r.Reset(data, bad)
		got := ReadMessage(&r)
		if err := r.Done(); err == nil {
			if enc := AppendMessage(nil, got); !bytes.Equal(enc, data) {
				t.Fatalf("message record not canonical: %x re-encodes to %x", data, enc)
			}
			if len(data) > MaxMessageSize {
				t.Fatalf("accepted a %d-byte message record, bound %d", len(data), MaxMessageSize)
			}
		} else if err != bad {
			t.Fatalf("message refusal %v lost its sentinel", err)
		}

		r.Reset(data, bad)
		ob := ReadMessage(&r)
		resp, present := ReadResponse(&r, ob.Msg.Clock)
		if err := r.Done(); err != nil {
			if err != bad {
				t.Fatalf("response refusal %v lost its sentinel", err)
			}
			return
		}
		var want *Response
		if present {
			want = &resp
		}
		if enc := AppendResponse(AppendMessage(nil, ob), want, ob.Msg.Clock); !bytes.Equal(enc, data) {
			t.Fatalf("message and response records not canonical: %x re-encodes to %x", data, enc)
		}
	})
}
