package store

// Checkpoint log record framing (WIRE.md §11). Every log entry is
//
//	uint32 LE  body length
//	uint32 LE  CRC-32 (IEEE) of the body
//	body       kind byte | activity ID (node uint32 LE, seq uint32 LE) | payload
//
// The length prefix lets a reader skip to the next record without
// understanding the payload; the CRC turns any torn or bit-flipped write
// into a detectable corruption instead of a silently wrong restore. A
// log is replayed front to back and stops at the first record that fails
// either check — the longest valid prefix is the recovered state, which
// is exactly the write-ahead-log contract the crash-at-every-offset
// torture test pins down.

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Record kinds.
const (
	// KindCheckpoint carries an activity's serialized checkpoint; the
	// latest one per activity wins.
	KindCheckpoint byte = 1
	// KindTombstone erases every earlier checkpoint of the activity
	// (graceful termination, migration, failover adoption).
	KindTombstone byte = 2
)

const (
	headerSize = 8     // length + CRC
	bodyFixed  = 1 + 8 // kind + activity ID
	// MaxRecordBody bounds one record's body so a garbage length prefix
	// cannot demand an absurd allocation from the replay loop.
	MaxRecordBody = 64 << 20
)

// Record is one decoded checkpoint-log entry.
type Record struct {
	Kind    byte
	ID      ids.ActivityID
	Payload []byte
}

// framedSize returns the on-disk size of the record.
func (r Record) framedSize() int {
	return headerSize + bodyFixed + len(r.Payload)
}

// AppendRecord frames one record onto buf and returns the extended
// buffer.
func AppendRecord(buf []byte, r Record) []byte {
	bodyLen := bodyFixed + len(r.Payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC patched below
	bodyAt := len(buf)
	buf = wire.AppendID(append(buf, r.Kind), r.ID)
	buf = append(buf, r.Payload...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[bodyAt:]))
	return buf
}

// DecodeRecord decodes the first record in buf, returning it and the
// bytes consumed. ErrShort means the buffer ends mid-record (a clean
// crash point: everything before it is intact); ErrCorrupt means the
// record is structurally present but fails its shape or CRC check. The
// payload is copied out of buf.
func DecodeRecord(buf []byte) (Record, int, error) {
	var r wire.Reader
	r.Reset(buf, ErrShort)
	bodyLen, crc := r.U32(), r.U32()
	if r.Err() == nil && (bodyLen < bodyFixed || bodyLen > MaxRecordBody) {
		return Record{}, 0, ErrCorrupt
	}
	body := r.Next(int(bodyLen))
	if err := r.Err(); err != nil {
		return Record{}, 0, err
	}
	r.Reset(body, ErrCorrupt)
	rec := Record{Kind: r.Byte(), ID: r.ID()}
	if crc32.ChecksumIEEE(body) != crc || (rec.Kind != KindCheckpoint && rec.Kind != KindTombstone) {
		return Record{}, 0, ErrCorrupt
	}
	if r.Len() > 0 {
		rec.Payload = append([]byte(nil), r.Rest()...)
	}
	return rec, headerSize + len(body), nil
}
