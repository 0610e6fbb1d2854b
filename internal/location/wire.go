package location

import (
	"encoding/binary"
	"errors"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Directory envelope tags. They ride the application transport class
// next to the request/future envelopes (kinds 1..7), so they sit in a
// disjoint byte range.
const (
	TagAnnounce = 0xA1 // one-way: batch of rebinds for the receiving shard / cache
	TagQuery    = 0xA2 // call: where does this activity live now?
	TagReply    = 0xA3 // call response to TagQuery
)

// ErrMalformed reports a directory envelope that failed to decode.
var ErrMalformed = errors.New("location: malformed directory envelope")

// MaxAnnounce bounds the rebind count a decoder will accept. Shard
// announcements and per-beat re-announcements carry a handful of pairs;
// a graceful Leave or a failover adoption carries one pair per relocated
// activity and may exceed it, so its sender splits the batch into
// envelopes of at most MaxAnnounce pairs.
const MaxAnnounce = 1 << 16

// Rebind maps a stale activity identity to a fresher one.
type Rebind struct {
	Old, New ids.ActivityID
}

// AppendAnnounce encodes a TagAnnounce envelope:
//
//	tag(1) | count(uvarint) | count × (old node,seq | new node,seq) as LE uint32s
func AppendAnnounce(buf []byte, rebinds []Rebind) []byte {
	buf = append(buf, TagAnnounce)
	buf = binary.AppendUvarint(buf, uint64(len(rebinds)))
	for _, rb := range rebinds {
		buf = wire.AppendID(buf, rb.Old)
		buf = wire.AppendID(buf, rb.New)
	}
	return buf
}

// DecodeAnnounce parses a TagAnnounce envelope.
func DecodeAnnounce(p []byte) ([]Rebind, error) {
	var r wire.Reader
	r.Reset(p, ErrMalformed)
	r.Expect(TagAnnounce)
	out := make([]Rebind, r.Count(MaxAnnounce))
	for i := range out {
		out[i] = Rebind{Old: r.ID(), New: r.ID()}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendQuery encodes a TagQuery envelope: tag(1) | id node,seq.
func AppendQuery(buf []byte, id ids.ActivityID) []byte {
	return wire.AppendID(append(buf, TagQuery), id)
}

// DecodeQuery parses a TagQuery envelope.
func DecodeQuery(p []byte) (ids.ActivityID, error) {
	var r wire.Reader
	r.Reset(p, ErrMalformed)
	r.Expect(TagQuery)
	id := r.ID()
	return id, r.Done()
}

// AppendReply encodes a TagReply envelope: tag(1) | known(1) | id.
// When known is false the id is ignored by decoders (encoded as Nil).
func AppendReply(buf []byte, new ids.ActivityID, known bool) []byte {
	if !known {
		return wire.AppendID(append(buf, TagReply, 0), ids.Nil)
	}
	return wire.AppendID(append(buf, TagReply, 1), new)
}

// DecodeReply parses a TagReply envelope. The canonical form of an
// unknown reply zeroes the ignored id, and decoders insist on it.
func DecodeReply(p []byte) (new ids.ActivityID, known bool, err error) {
	var r wire.Reader
	r.Reset(p, ErrMalformed)
	tag, flag, id := r.Byte(), r.Byte(), r.ID()
	if err := r.Done(); err != nil || tag != TagReply || flag > 1 || (flag == 0 && id != ids.Nil) {
		return ids.Nil, false, ErrMalformed
	}
	return id, flag == 1, nil
}
