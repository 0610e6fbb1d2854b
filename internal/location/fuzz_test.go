package location

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

// FuzzLocationEnvelope throws arbitrary bytes at all three directory
// decoders: none may panic, and anything a decoder accepts must
// re-encode to the identical bytes (the codec is canonical).
func FuzzLocationEnvelope(f *testing.F) {
	f.Add(AppendAnnounce(nil, nil))
	f.Add(AppendAnnounce(nil, []Rebind{
		{Old: ids.ActivityID{Node: 1, Seq: 2}, New: ids.ActivityID{Node: 3, Seq: 4}},
	}))
	f.Add(AppendAnnounce(nil, []Rebind{
		{Old: ids.ActivityID{Node: 0xffffffff, Seq: 0xffffffff}, New: ids.ActivityID{}},
		{Old: ids.ActivityID{Node: 5, Seq: 6}, New: ids.ActivityID{Node: 7, Seq: 8}},
	}))
	f.Add(AppendQuery(nil, ids.ActivityID{Node: 9, Seq: 10}))
	f.Add(AppendReply(nil, ids.ActivityID{Node: 11, Seq: 12}, true))
	f.Add(AppendReply(nil, ids.Nil, false))
	f.Add([]byte{TagAnnounce, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	for _, name := range []string{"location-announce", "location-query", "location-reply-known", "location-reply-unknown"} {
		f.Add(vector(f, name))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if rebinds, err := DecodeAnnounce(data); err == nil {
			if !bytes.Equal(AppendAnnounce(nil, rebinds), data) {
				t.Fatalf("announce not canonical: %x", data)
			}
		}
		if id, err := DecodeQuery(data); err == nil {
			if !bytes.Equal(AppendQuery(nil, id), data) {
				t.Fatalf("query not canonical: %x", data)
			}
		}
		if id, known, err := DecodeReply(data); err == nil {
			if !bytes.Equal(AppendReply(nil, id, known), data) {
				t.Fatalf("reply not canonical: %x", data)
			}
		}
	})
}
