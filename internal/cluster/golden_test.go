package cluster

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// update rewrites the golden vectors from the current encoders (`make
// golden`). WIRE.md states when a regenerated vector is acceptable.
var update = flag.Bool("update", false, "rewrite testdata/wire/*.hex from the current encoders")

// golden pins enc to the checked-in vector testdata/wire/<name>.hex and
// returns the vector's bytes for the decode half of the test. doc cites
// the WIRE.md section and describes the example; -update rewrites the
// file instead of comparing.
func golden(t *testing.T, name, doc string, enc []byte) []byte {
	t.Helper()
	if *update {
		text := "# WIRE.md " + doc + "\n"
		for h := hex.EncodeToString(enc); h != ""; h = h[min(len(h), 32):] {
			text += h[:min(len(h), 32)] + "\n"
		}
		if err := os.WriteFile(vectorPath(name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := vector(t, name)
	if !bytes.Equal(enc, want) {
		t.Errorf("%s (WIRE.md %s): encoding drifted\n got %x\nwant %x", vectorPath(name), doc, enc, want)
	}
	return want
}

func vectorPath(name string) string {
	return filepath.Join("..", "..", "testdata", "wire", name+".hex")
}

// vector reads the golden vector testdata/wire/<name>.hex ('#' lines are
// comments); the envelope fuzzers seed their corpora with it too.
func vector(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(vectorPath(name))
	if err != nil {
		tb.Fatal(err)
	}
	var digits strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "#") {
			digits.WriteString(strings.TrimSpace(line))
		}
	}
	b, err := hex.DecodeString(digits.String())
	if err != nil {
		tb.Fatalf("%s: %v", vectorPath(name), err)
	}
	return b
}

// TestGoldenClusterEnvelopes pins the cluster envelopes (WIRE.md §8): one
// vector per kind 1–12, each encoded to exactly the checked-in bytes and
// decoded back to an equal value.
func TestGoldenClusterEnvelopes(t *testing.T) {
	join := Join{Addr: "10.0.0.1:7000", Want: 64}
	joinOK := JoinOK{First: 65, Count: 64, Members: []Member{{Node: 1, Addr: "10.0.0.1:7000"}, {Node: 200, Addr: "10.0.0.2:7000"}}}
	up := NodeEvent{Node: 65, Addr: "10.0.0.2:7000"}

	same := func(t *testing.T, got, want any, err error) {
		t.Helper()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode = %+v, %v\nwant %+v", got, err, want)
		}
	}
	event := func(kind byte, want NodeEvent) func(*testing.T, []byte) {
		return func(t *testing.T, b []byte) {
			k, ev, err := DecodeNodeEvent(b)
			same(t, [2]any{k, ev}, [2]any{kind, want}, err)
		}
	}
	response := func(t *testing.T, b []byte) {
		if err := DecodeResponse(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, doc string
		enc       []byte
		check     func(t *testing.T, b []byte)
	}{
		{"cluster-join", `§8 join (kind 1): addr "10.0.0.1:7000", want 64`, EncodeJoin(join),
			func(t *testing.T, b []byte) { got, err := DecodeJoin(b); same(t, got, join, err) }},
		{"cluster-join-ok", "§8 join-ok (kind 2): first 65, count 64, members 1 and 200", EncodeJoinOK(joinOK),
			func(t *testing.T, b []byte) { got, err := DecodeJoinOK(b); same(t, got, joinOK, err); response(t, b) }},
		{"cluster-lease", "§8 lease (kind 3): want 64", EncodeLease(Lease{Want: 64}),
			func(t *testing.T, b []byte) { got, err := DecodeLease(b); same(t, got, Lease{Want: 64}, err) }},
		{"cluster-lease-ok", "§8 lease-ok (kind 4): first 129, count 64", EncodeLeaseOK(LeaseOK{First: 129, Count: 64}),
			func(t *testing.T, b []byte) {
				got, err := DecodeLeaseOK(b)
				same(t, got, LeaseOK{First: 129, Count: 64}, err)
				response(t, b)
			}},
		{"cluster-node-up", `§8 node-up (kind 5): node 65 at "10.0.0.2:7000"`, EncodeNodeEvent(MsgNodeUp, up), event(MsgNodeUp, up)},
		{"cluster-node-dead", "§8 node-dead (kind 6): node 65, empty addr", EncodeNodeEvent(MsgNodeDead, NodeEvent{Node: 65}),
			event(MsgNodeDead, NodeEvent{Node: 65})},
		{"cluster-node-left", "§8 node-left (kind 7): node 66, empty addr", EncodeNodeEvent(MsgNodeLeft, NodeEvent{Node: 66}),
			event(MsgNodeLeft, NodeEvent{Node: 66})},
		{"cluster-ping", "§8 ping (kind 8): bare kind byte", EncodePing(),
			func(t *testing.T, b []byte) { same(t, b, []byte{MsgPing}, nil) }},
		{"cluster-pong", "§8 pong (kind 9): bare kind byte", EncodePong(), response},
		{"cluster-ack", "§8 ack (kind 10): bare kind byte", EncodeAck(), response},
		{"cluster-err", `§8 err (kind 11): reason "not the seed"`, EncodeErr("not the seed"),
			func(t *testing.T, b []byte) {
				if err := DecodeResponse(b); err == nil || err.Error() != "cluster: not the seed" {
					t.Fatalf("DecodeResponse = %v, want cluster: not the seed", err)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.check(t, golden(t, c.name, c.doc, c.enc))
		})
	}
}
