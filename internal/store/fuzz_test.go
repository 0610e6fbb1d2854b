package store

import (
	"bytes"
	"testing"
)

// FuzzCheckpointRecord walks DecodeRecord over arbitrary bytes exactly
// the way log replay does: decode, advance by the consumed count, stop
// at the first error. Properties pinned down:
//
//   - decode never panics and never over-consumes the buffer;
//   - every successfully decoded record canonically re-encodes to the
//     exact frame bytes it was read from (so compaction rewrites are
//     byte-identical to fresh appends);
//   - a decode error is always one of the two declared sentinels.
func FuzzCheckpointRecord(f *testing.F) {
	f.Add(AppendRecord(nil, Record{Kind: KindCheckpoint, ID: aid(1, 1), Payload: []byte("seed")}))
	f.Add(AppendRecord(nil, Record{Kind: KindTombstone, ID: aid(7, 42)}))
	two := AppendRecord(nil, Record{Kind: KindCheckpoint, ID: aid(2, 3), Payload: bytes.Repeat([]byte{0xC3}, 40)})
	two = AppendRecord(two, Record{Kind: KindCheckpoint, ID: aid(2, 4)})
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(append(vector(f, "record-checkpoint"), vector(f, "record-tombstone")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				if err != ErrShort && err != ErrCorrupt {
					t.Fatalf("unexpected error type at %d: %v", off, err)
				}
				break
			}
			if n <= 0 || off+n > len(data) {
				t.Fatalf("consumed %d of %d remaining", n, len(data)-off)
			}
			if rec.framedSize() != n {
				t.Fatalf("framedSize %d != consumed %d", rec.framedSize(), n)
			}
			if got := AppendRecord(nil, rec); !bytes.Equal(got, data[off:off+n]) {
				t.Fatalf("re-encode mismatch at %d:\n got %x\nwant %x", off, got, data[off:off+n])
			}
			off += n
		}
	})
}
