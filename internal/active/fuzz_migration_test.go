package active

// FuzzMigrationEnvelope aims the fuzzer at the migration envelope decoder
// (WIRE.md §7): the one new wire surface a hostile or corrupted peer can
// hit with arbitrary bytes through the transport's ClassApp call leg.
// decodeMigration must never panic, and everything it accepts must
// re-encode ⇄ re-decode to the same envelope (no one-way doors between a
// forwarder and its destination). The checkpoint wrapper around it
// (WIRE.md §11), which recovery reads back from disk, is held to the same
// rules.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

func FuzzMigrationEnvelope(f *testing.F) {
	seeds := []migration{
		{},
		{Old: ids.ActivityID{Node: 1, Seq: 1}, Name: "n", Kind: "k"},
		{
			Old:  ids.ActivityID{Node: 3, Seq: 7},
			Name: "roamer",
			Kind: "test/counter",
			State: []migrationState{
				{Key: "total", Value: wire.Int(41)},
				{Key: "peer", Value: wire.Ref(ids.ActivityID{Node: 1, Seq: 2})},
				{Key: "fut", Value: wire.FutureVal(wire.FutureRef{
					ID:    ids.FutureID{Node: 3, Seq: 9},
					Owner: ids.ActivityID{Node: 3, Seq: 7},
				})},
			},
			Queue: []migrationRequest{
				{
					Sender: ids.ActivityID{Node: 2, Seq: 1},
					Future: ids.FutureID{Node: 2, Seq: 5},
					Method: "add",
					Args:   wire.List(wire.Int(1), wire.String("x")),
				},
			},
		},
	}
	for _, m := range seeds {
		f.Add(encodeMigration(m))
	}
	// A few deliberately damaged prefixes.
	f.Add([]byte{envMigrate})
	f.Add([]byte{envMigrate, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(vector(f, "env-migrate"))
	f.Add(vector(f, "checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := decodeCheckpoint(data); err == nil {
			again, err := decodeCheckpoint(encodeCheckpoint(c))
			if err != nil || !reflect.DeepEqual(again.Names, c.Names) ||
				!bytes.Equal(encodeMigration(again.Env), encodeMigration(c.Env)) {
				t.Fatalf("checkpoint round trip: %v\n%+v\n%+v", err, c, again)
			}
		}
		m, err := decodeMigration(data)
		if err != nil {
			return
		}
		enc := encodeMigration(m)
		again, err := decodeMigration(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted envelope failed: %v", err)
		}
		if again.Old != m.Old || again.Name != m.Name || again.Kind != m.Kind ||
			len(again.State) != len(m.State) || len(again.Queue) != len(m.Queue) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", m, again)
		}
		for i := range m.State {
			if again.State[i].Key != m.State[i].Key || !again.State[i].Value.Equal(m.State[i].Value) {
				t.Fatalf("state[%d] mismatch", i)
			}
		}
		for i := range m.Queue {
			g, w := again.Queue[i], m.Queue[i]
			if g.Sender != w.Sender || g.Future != w.Future || g.Method != w.Method || !g.Args.Equal(w.Args) {
				t.Fatalf("queue[%d] mismatch", i)
			}
		}
	})
}
