package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Membership envelope kinds: the first byte of every ClassCluster
// payload (WIRE.md §8). Join/lease are request/response exchanges against
// a seed; node events are gossip (relayed once per news item per
// process); ping/pong is the suspect-path liveness probe.
const (
	// MsgJoin asks a seed for a node-ID lease and the current member map.
	MsgJoin byte = iota + 1
	// MsgJoinOK answers a join with the granted lease and the members.
	MsgJoinOK
	// MsgLease asks the seed for a further node-ID block.
	MsgLease
	// MsgLeaseOK answers a lease request.
	MsgLeaseOK
	// MsgNodeUp announces a node (and the address of its process).
	MsgNodeUp
	// MsgNodeDead announces a detected failure.
	MsgNodeDead
	// MsgNodeLeft announces a graceful departure.
	MsgNodeLeft
	// MsgPing probes a suspect node.
	MsgPing
	// MsgPong answers a probe.
	MsgPong
	// MsgAck acknowledges a gossip exchange with nothing to add.
	MsgAck
	// MsgErr reports a refused request; the error text follows.
	MsgErr
)

// ErrBadEnvelope reports a malformed or unexpected cluster payload.
var ErrBadEnvelope = errors.New("cluster: bad envelope")

// Member is one (node, process address) entry of the cluster map. The
// address is empty for members of a single-process (simnet) cluster.
type Member struct {
	Node ids.NodeID
	Addr string
}

// Join is the payload of MsgJoin.
type Join struct {
	// Addr is the joining process's listen address (empty on substrates
	// without process addressing).
	Addr string
	// Want is the requested node-ID block size.
	Want int
}

// JoinOK is the payload of MsgJoinOK.
type JoinOK struct {
	First   ids.NodeID
	Count   int
	Members []Member
}

// Lease is the payload of MsgLease.
type Lease struct {
	Want int
}

// LeaseOK is the payload of MsgLeaseOK.
type LeaseOK struct {
	First ids.NodeID
	Count int
}

// NodeEvent is the payload of MsgNodeUp / MsgNodeDead / MsgNodeLeft. Addr
// is only meaningful for node-up.
type NodeEvent struct {
	Node ids.NodeID
	Addr string
}

// open returns a cursor past p's kind byte, failed unless that byte is
// kind.
func open(p []byte, kind byte) wire.Reader {
	var r wire.Reader
	r.Reset(p, ErrBadEnvelope)
	r.Expect(kind)
	return r
}

// EncodeJoin encodes a join request.
func EncodeJoin(j Join) []byte {
	buf := wire.AppendString([]byte{MsgJoin}, j.Addr)
	return binary.AppendUvarint(buf, uint64(j.Want))
}

// DecodeJoin decodes a MsgJoin payload.
func DecodeJoin(p []byte) (Join, error) {
	r := open(p, MsgJoin)
	j := Join{Addr: r.String(), Want: int(r.Uvarint())}
	return j, r.Done()
}

// EncodeJoinOK encodes a join response.
func EncodeJoinOK(ok JoinOK) []byte {
	buf := []byte{MsgJoinOK}
	buf = binary.AppendUvarint(buf, uint64(ok.First))
	buf = binary.AppendUvarint(buf, uint64(ok.Count))
	buf = binary.AppendUvarint(buf, uint64(len(ok.Members)))
	for _, m := range ok.Members {
		buf = binary.AppendUvarint(buf, uint64(m.Node))
		buf = wire.AppendString(buf, m.Addr)
	}
	return buf
}

// DecodeJoinOK decodes a MsgJoinOK payload.
func DecodeJoinOK(p []byte) (JoinOK, error) {
	r := open(p, MsgJoinOK)
	ok := JoinOK{First: ids.NodeID(r.Uvarint()), Count: int(r.Uvarint())}
	ok.Members = make([]Member, r.Count(r.Len()))
	for i := range ok.Members {
		ok.Members[i] = Member{Node: ids.NodeID(r.Uvarint()), Addr: r.String()}
	}
	return ok, r.Done()
}

// EncodeLease encodes a lease request.
func EncodeLease(l Lease) []byte {
	return binary.AppendUvarint([]byte{MsgLease}, uint64(l.Want))
}

// DecodeLease decodes a MsgLease payload.
func DecodeLease(p []byte) (Lease, error) {
	r := open(p, MsgLease)
	l := Lease{Want: int(r.Uvarint())}
	return l, r.Done()
}

// EncodeLeaseOK encodes a lease response.
func EncodeLeaseOK(ok LeaseOK) []byte {
	buf := []byte{MsgLeaseOK}
	buf = binary.AppendUvarint(buf, uint64(ok.First))
	return binary.AppendUvarint(buf, uint64(ok.Count))
}

// DecodeLeaseOK decodes a MsgLeaseOK payload.
func DecodeLeaseOK(p []byte) (LeaseOK, error) {
	r := open(p, MsgLeaseOK)
	ok := LeaseOK{First: ids.NodeID(r.Uvarint()), Count: int(r.Uvarint())}
	return ok, r.Done()
}

// EncodeNodeEvent encodes a node-up/dead/left gossip payload; kind must
// be MsgNodeUp, MsgNodeDead or MsgNodeLeft.
func EncodeNodeEvent(kind byte, ev NodeEvent) []byte {
	buf := binary.AppendUvarint([]byte{kind}, uint64(ev.Node))
	return wire.AppendString(buf, ev.Addr)
}

// DecodeNodeEvent decodes a node event, returning its kind.
func DecodeNodeEvent(p []byte) (byte, NodeEvent, error) {
	var r wire.Reader
	r.Reset(p, ErrBadEnvelope)
	kind := r.Byte()
	if kind != MsgNodeUp && kind != MsgNodeDead && kind != MsgNodeLeft {
		return 0, NodeEvent{}, ErrBadEnvelope
	}
	ev := NodeEvent{Node: ids.NodeID(r.Uvarint()), Addr: r.String()}
	return kind, ev, r.Done()
}

// EncodePing returns the probe payload.
func EncodePing() []byte { return []byte{MsgPing} }

// EncodePong returns the probe answer.
func EncodePong() []byte { return []byte{MsgPong} }

// EncodeAck returns the gossip acknowledgement.
func EncodeAck() []byte { return []byte{MsgAck} }

// EncodeErr encodes a refusal with its reason.
func EncodeErr(msg string) []byte {
	return wire.AppendString([]byte{MsgErr}, msg)
}

// DecodeResponse interprets the response payload of a cluster exchange:
// nil error for MsgJoinOK/MsgLeaseOK/MsgPong/MsgAck (the caller decodes
// the body it expects), the carried error for MsgErr, ErrBadEnvelope for
// anything else.
func DecodeResponse(p []byte) error {
	if len(p) < 1 {
		return fmt.Errorf("%w: empty response", ErrBadEnvelope)
	}
	switch p[0] {
	case MsgJoinOK, MsgLeaseOK, MsgPong, MsgAck:
		return nil
	case MsgErr:
		r := open(p, MsgErr)
		msg := r.String()
		if err := r.Done(); err != nil {
			return err
		}
		return fmt.Errorf("cluster: %s", msg)
	default:
		return fmt.Errorf("%w: kind %d", ErrBadEnvelope, p[0])
	}
}
