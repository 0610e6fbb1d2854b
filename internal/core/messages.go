// Package core implements the paper's primary contribution: the complete
// distributed garbage collector for activities (Caromel, Chazarain, Henrio,
// Middleware 2007).
//
// The collector is an engine-agnostic state machine: one Collector instance
// per activity, driven by the middleware through five entry points —
//
//   - Tick(now): the periodic TTB broadcast (Algorithm 2);
//   - HandleMessage(msg, now): reception of a DGC message (Algorithm 3),
//     returning the DGC response that rides back on the same connection;
//   - HandleResponse(from, resp, now): reception of a DGC response
//     (Algorithm 4);
//   - BecomeIdle(now): the activity's service queue drained (clock
//     increment occasion #1, §3.2);
//   - AddReferenced/LostReferenced: reference-graph edge creation (stub
//     deserialized) and deletion (stub tag died at a local collection;
//     clock increment occasion #3).
//
// Clock increment occasion #2 — loss of a referencer — is detected inside
// Tick when a referencer has been silent for TTA.
//
// The same state machine is driven by the live goroutine runtime
// (internal/active) and by the deterministic discrete-event harness
// (internal/sim); see DESIGN.md §6.
package core

import (
	"encoding/binary"
	"errors"

	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/wire"
)

// Message is a DGC message, sent every TTB from a referencer to each of its
// referenced activities (§3.2 "DGC Messages and Responses"). Its record
// has a bounded size (MaxMessageSize), which the paper's complexity
// analysis (§4.3) relies on.
type Message struct {
	// Sender identifies the referencer. The recipient stores it in its
	// referencer list; it is never used to open a connection back.
	Sender ids.ActivityID
	// Clock is the sender's view of the final activity clock.
	Clock lamport.Clock
	// Consensus is the sender's acceptance of the final activity clock it
	// received in the previous DGC response from this destination.
	Consensus bool
}

// Response is a DGC response, returned synchronously to each DGC message
// over the same connection.
type Response struct {
	// Clock is the responder's consensus candidate. It is never used to
	// update the receiver's own clock (Fig. 4) — only to build consensus.
	Clock lamport.Clock
	// HasParent reports that the responder has a spanning-tree parent or
	// is itself the clock owner, i.e. that adopting the responder as
	// parent keeps the reverse spanning tree rooted at the originator.
	HasParent bool
	// ConsensusReached propagates the termination wave: the responder has
	// learned that a consensus was reached on its current clock and is
	// waiting to die (the §4.3 optimization).
	ConsensusReached bool
	// Depth is the responder's distance to the originator along the
	// reverse spanning tree (0 for the clock owner). Only meaningful when
	// HasParent; used by the §7.2 minimal-height extension to re-adopt
	// shallower parents.
	Depth uint32
}

// ErrBadRecord reports a DGC record DecodeMessage refuses: short,
// trailing bytes, or not the one canonical encoding of its message.
var ErrBadRecord = errors.New("core: malformed DGC record")

// DGC records (WIRE.md §3) are varints: an activity identifier is its
// node then its sequence number, each a uvarint, and a clock is its value
// as a uvarint then its owner's identifier. A flags byte lets the common
// cases drop a field: a message whose clock owner is its sender, a
// response that echoes the message's clock. Every record has exactly one
// valid encoding, and none is longer than its bound:
const (
	maxIDSize    = 2 * binary.MaxVarintLen32
	maxClockSize = binary.MaxVarintLen64 + maxIDSize
	// MaxMessageSize bounds a message record: target, sender, flags,
	// clock.
	MaxMessageSize = 2*maxIDSize + 1 + maxClockSize
	// MaxResponseSize bounds a response record: flags, clock, depth.
	MaxResponseSize = 1 + maxClockSize + binary.MaxVarintLen32
	// MinMessageSize is the shortest message record: one byte per
	// varint and the owner elided. It caps how many records a payload
	// can claim.
	MinMessageSize = 2*2 + 1 + 1
)

// Message flags.
const (
	msgConsensus     = 1 << iota // Message.Consensus
	msgOwnerIsSender             // the clock owner is the sender: no owner field
	msgFlags         = msgConsensus | msgOwnerIsSender
)

// Response flags. A record without respPresent stands for a target that
// is gone, and is that one byte.
const (
	respPresent     = 1 << iota
	respHasParent   // Response.HasParent
	respConsensus   // Response.ConsensusReached
	respClockIsSent // the clock is the message's own: no clock field
	respFlags       = respPresent | respHasParent | respConsensus | respClockIsSent
)

func appendID(buf []byte, id ids.ActivityID) []byte {
	buf = binary.AppendUvarint(buf, uint64(id.Node))
	return binary.AppendUvarint(buf, uint64(id.Seq))
}

func readID(r *wire.Reader) ids.ActivityID {
	return ids.ActivityID{Node: ids.NodeID(r.Uvarint32()), Seq: r.Uvarint32()}
}

func flag(b bool, f byte) byte {
	if b {
		return f
	}
	return 0
}

// AppendMessage appends ob's message, addressed to ob.To, as one record.
func AppendMessage(buf []byte, ob Outbound) []byte {
	m := ob.Msg
	ownerIsSender := m.Clock.Owner == m.Sender
	buf = appendID(buf, ob.To)
	buf = appendID(buf, m.Sender)
	buf = append(buf, flag(m.Consensus, msgConsensus)|flag(ownerIsSender, msgOwnerIsSender))
	buf = binary.AppendUvarint(buf, m.Clock.Value)
	if !ownerIsSender {
		buf = appendID(buf, m.Clock.Owner)
	}
	return buf
}

// ReadMessage reads one record AppendMessage wrote. A record that is
// short, sets an unknown flag or spells out an owner it could have
// elided fails r.
func ReadMessage(r *wire.Reader) Outbound {
	ob := Outbound{To: readID(r)}
	m := &ob.Msg
	m.Sender = readID(r)
	flags := r.Byte()
	m.Consensus = flags&msgConsensus != 0
	m.Clock.Value = r.Uvarint()
	if flags&msgOwnerIsSender != 0 {
		m.Clock.Owner = m.Sender
	} else if m.Clock.Owner = readID(r); m.Clock.Owner == m.Sender {
		r.Fail()
	}
	if flags&^msgFlags != 0 {
		r.Fail()
	}
	return ob
}

// AppendResponse appends resp, the answer to a message whose clock was
// sent, as one record; nil stands for a target that is gone.
func AppendResponse(buf []byte, resp *Response, sent lamport.Clock) []byte {
	if resp == nil {
		return append(buf, 0)
	}
	clockIsSent := resp.Clock == sent
	buf = append(buf, respPresent|flag(resp.HasParent, respHasParent)|
		flag(resp.ConsensusReached, respConsensus)|flag(clockIsSent, respClockIsSent))
	if !clockIsSent {
		buf = binary.AppendUvarint(buf, resp.Clock.Value)
		buf = appendID(buf, resp.Clock.Owner)
	}
	return binary.AppendUvarint(buf, uint64(resp.Depth))
}

// ReadResponse reads one record AppendResponse wrote for a message whose
// clock was sent, and reports whether a response was present. A record
// that is short, sets an unknown flag or spells out a clock it could
// have elided fails r.
func ReadResponse(r *wire.Reader, sent lamport.Clock) (Response, bool) {
	flags := r.Byte()
	if flags&respPresent == 0 {
		if flags != 0 {
			r.Fail()
		}
		return Response{}, false
	}
	resp := Response{
		HasParent:        flags&respHasParent != 0,
		ConsensusReached: flags&respConsensus != 0,
		Clock:            sent,
	}
	if flags&respClockIsSent == 0 {
		resp.Clock = lamport.Clock{Value: r.Uvarint(), Owner: readID(r)}
		if resp.Clock == sent {
			r.Fail()
		}
	}
	resp.Depth = r.Uvarint32()
	if flags&^respFlags != 0 {
		r.Fail()
	}
	return resp, true
}

// EncodeMessage encodes m as one record with no target (ids.Nil).
func EncodeMessage(m Message) []byte {
	return AppendMessage(make([]byte, 0, MaxMessageSize), Outbound{Msg: m})
}

// DecodeMessage is the inverse of EncodeMessage.
func DecodeMessage(buf []byte) (Message, error) {
	var r wire.Reader
	r.Reset(buf, ErrBadRecord)
	ob := ReadMessage(&r)
	if err := r.Done(); err != nil || !ob.To.IsNil() {
		return Message{}, ErrBadRecord
	}
	return ob.Msg, nil
}
