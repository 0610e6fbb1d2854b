package active

// FuzzFanOutEnvelope aims the fuzzer at the two tree fan-out decoders
// (WIRE.md §10): envFanOut (the request-bundle scatter a relay splits
// and re-sends) and envFanAgg (the aggregated replies flowing back up).
// Both arrive over the transport's ClassApp leg, so a hostile or
// corrupted peer can hit them with arbitrary bytes. Neither may panic,
// and everything accepted must survive a re-encode ⇄ re-decode round
// trip — a relay re-encodes the bundles it forwards, so any one-way
// door would corrupt the subtree.

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

func fuzzFanOutSeeds() [][]byte {
	sharedEnv := fanOutEnv{
		Root:   3,
		AggKey: 17,
		Method: "double",
		Shared: true,
		Args:   wire.Encode(nil, wire.Int(21)),
		Bundle: []fanBundle{
			{Dst: 4, Entries: []fanEntry{
				{Target: ids.ActivityID{Node: 4, Seq: 1}, Sender: ids.ActivityID{Node: 3, Seq: 9}, Future: ids.FutureID{Node: 3, Seq: 2}},
				{Target: ids.ActivityID{Node: 4, Seq: 2}, Sender: ids.ActivityID{Node: 3, Seq: 9}, Future: ids.FutureID{Node: 3, Seq: 3}},
			}},
			{Dst: 5, Entries: []fanEntry{
				{Target: ids.ActivityID{Node: 5, Seq: 1}, Sender: ids.ActivityID{Node: 3, Seq: 9}},
			}},
		},
	}
	scatterEnv := fanOutEnv{
		Root:   1,
		Method: "work",
		Bundle: []fanBundle{
			{Dst: 2, Entries: []fanEntry{
				{
					Target: ids.ActivityID{Node: 2, Seq: 7},
					Sender: ids.ActivityID{Node: 1, Seq: 1},
					Future: ids.FutureID{Node: 1, Seq: 4},
					Args:   wire.Encode(nil, wire.List(wire.String("x"), wire.Ref(ids.ActivityID{Node: 1, Seq: 3}))),
				},
			}},
		},
	}
	agg := encodeFanAgg(3, 17, [][]byte{
		encodeFutureUpdate(futureUpdate{Future: ids.FutureID{Node: 3, Seq: 2}, Value: wire.Int(42)}),
		encodeFutureUpdate(futureUpdate{Future: ids.FutureID{Node: 3, Seq: 3}, Failed: true, Err: "boom"}),
	})
	return [][]byte{
		encodeFanOut(fanOutEnv{Method: "m"}),
		encodeFanOut(sharedEnv),
		encodeFanOut(scatterEnv),
		agg,
		encodeFanAgg(1, 0, nil),
		{envFanOut},
		{envFanAgg, 0xFF, 0xFF, 0xFF, 0xFF},
	}
}

func FuzzFanOutEnvelope(f *testing.F) {
	for _, s := range fuzzFanOutSeeds() {
		f.Add(s)
	}
	for _, name := range []string{"fanout-shared", "fanout-scatter", "fanagg"} {
		f.Add(vector(f, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := decodeFanOut(data); err == nil {
			enc := encodeFanOut(e)
			again, err := decodeFanOut(enc)
			if err != nil {
				t.Fatalf("re-decode of accepted fan-out failed: %v", err)
			}
			if again.Root != e.Root || again.AggKey != e.AggKey || again.Method != e.Method ||
				again.Shared != e.Shared || len(again.Bundle) != len(e.Bundle) {
				t.Fatalf("fan-out round trip mismatch:\n%+v\n%+v", e, again)
			}
			if e.Shared && !bytes.Equal(again.Args, e.Args) {
				t.Fatal("shared args mismatch")
			}
			for i := range e.Bundle {
				g, w := again.Bundle[i], e.Bundle[i]
				if g.Dst != w.Dst || len(g.Entries) != len(w.Entries) {
					t.Fatalf("bundle[%d] mismatch", i)
				}
				for j := range w.Entries {
					ge, we := g.Entries[j], w.Entries[j]
					if ge.Target != we.Target || ge.Sender != we.Sender || ge.Future != we.Future {
						t.Fatalf("bundle[%d].entry[%d] mismatch", i, j)
					}
					if !e.Shared && !bytes.Equal(ge.Args, we.Args) {
						t.Fatalf("bundle[%d].entry[%d] args mismatch", i, j)
					}
				}
			}
		}
		if root, key, updates, err := decodeFanAgg(data); err == nil {
			enc := encodeFanAgg(root, key, updates)
			r2, k2, u2, err := decodeFanAgg(enc)
			if err != nil {
				t.Fatalf("re-decode of accepted fan-agg failed: %v", err)
			}
			if r2 != root || k2 != key || len(u2) != len(updates) {
				t.Fatal("fan-agg round trip mismatch")
			}
			for i := range updates {
				if !bytes.Equal(u2[i], updates[i]) {
					t.Fatalf("fan-agg update[%d] mismatch", i)
				}
			}
		}
	})
}
