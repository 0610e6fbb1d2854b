package active

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/wire"
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

// The documented examples the envelope vectors are cut from.
var (
	goldenA27 = ids.ActivityID{Node: 2, Seq: 7}
	goldenA13 = ids.ActivityID{Node: 1, Seq: 3}
	goldenF19 = ids.FutureID{Node: 1, Seq: 9}

	goldenMigration = migration{
		Old:  goldenA27,
		Name: "ctr",
		Kind: "test/counter",
		State: []migrationState{
			{Key: "peer", Value: wire.Ref(goldenA13)},
			{Key: "total", Value: wire.Int(41)},
		},
		Queue: []migrationRequest{{
			Sender: goldenA13,
			Future: goldenF19,
			Method: "add",
			Args:   wire.List(wire.Int(1), wire.String("x")),
		}},
	}

	goldenDGCMsg = core.Message{
		Sender:    goldenA13,
		Clock:     lamport.Clock{Value: 42, Owner: goldenA27},
		Consensus: true,
	}
	goldenDGCResp = core.Response{
		Clock:     lamport.Clock{Value: 42, Owner: goldenA27},
		HasParent: true,
		Depth:     3,
	}

	goldenFanShared = fanOutEnv{
		Root:   1,
		AggKey: 17,
		Method: "double",
		Shared: true,
		Args:   wire.Encode(nil, wire.Int(21)),
		Bundle: []fanBundle{
			{Dst: 2, Entries: []fanEntry{
				{Target: goldenA27, Sender: goldenA13, Future: goldenF19},
				{Target: ids.ActivityID{Node: 2, Seq: 8}, Sender: goldenA13, Future: ids.FutureID{Node: 1, Seq: 10}},
			}},
			{Dst: 3, Entries: []fanEntry{
				{Target: ids.ActivityID{Node: 3, Seq: 1}, Sender: goldenA13},
			}},
		},
	}
	goldenFanScatter = fanOutEnv{
		Root:   1,
		Method: "work",
		Bundle: []fanBundle{
			{Dst: 2, Entries: []fanEntry{
				{Target: goldenA27, Sender: goldenA13, Future: goldenF19, Args: wire.Encode(nil, wire.String("a"))},
				{Target: ids.ActivityID{Node: 2, Seq: 8}, Sender: goldenA13, Args: wire.Encode(nil, wire.Ref(goldenA13))},
			}},
		},
	}
)

// decodeRequestFull decodes a request envelope including its args value.
func decodeRequestFull(t *testing.T, b []byte) request {
	t.Helper()
	req, rest, err := decodeRequestHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Decoder
	if req.Args, err = d.Decode(rest); err != nil {
		t.Fatal(err)
	}
	return req
}

// decodeUpdateFull decodes a future-update envelope including its value.
func decodeUpdateFull(t *testing.T, b []byte) futureUpdate {
	t.Helper()
	u, rest, err := decodeFutureUpdateHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Decoder
	if u.Value, err = d.Decode(rest); err != nil {
		t.Fatal(err)
	}
	return u
}

// TestGoldenEnvelopes pins the runtime envelopes: WIRE.md §3 (request,
// future update, subscribe, DGC envelopes of one and two messages, DGC
// response), §7 (migration envelope, migrate responses, the
// checkpoint wrapper of §11) and §10 (fan-out, fan-agg). Each example is
// encoded to exactly the checked-in bytes and decoded back to an equal
// value.
func TestGoldenEnvelopes(t *testing.T) {
	req := request{Target: goldenA27, Sender: goldenA13, Future: goldenF19, Method: "add", Args: wire.Int(5)}
	upd := futureUpdate{Future: goldenF19, Value: wire.String("ok")}
	updFailed := futureUpdate{Future: goldenF19, Failed: true, Err: "boom", Value: wire.Null()}
	batch := []core.Outbound{
		{To: goldenA27, Msg: goldenDGCMsg},
		{To: ids.ActivityID{Node: 2, Seq: 8}, Msg: core.Message{Sender: goldenA13, Clock: lamport.Clock{Value: 7, Owner: goldenA13}}},
	}
	resps := []*core.Response{&goldenDGCResp, nil}
	ckpt := checkpoint{Env: goldenMigration, Names: []string{"counter", "ctr"}}
	aggUpdates := [][]byte{encodeFutureUpdate(upd), encodeFutureUpdate(updFailed)}

	same := func(t *testing.T, got, want any, err error) {
		t.Helper()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode = %+v, %v\nwant %+v", got, err, want)
		}
	}
	for _, c := range []struct {
		name, doc string
		enc       []byte
		check     func(t *testing.T, b []byte)
	}{
		{"env-request", `§3 request: target 2.7, sender 1.3, future 1.9, method "add", args Int(5)`,
			encodeRequest(req), func(t *testing.T, b []byte) { same(t, decodeRequestFull(t, b), req, nil) }},
		{"env-future-update", `§3 future update: future 1.9, ok, value String("ok")`,
			encodeFutureUpdate(upd), func(t *testing.T, b []byte) { same(t, decodeUpdateFull(t, b), upd, nil) }},
		{"env-future-update-failed", `§3 future update: future 1.9, failed "boom", value Null`,
			encodeFutureUpdate(updFailed), func(t *testing.T, b []byte) { same(t, decodeUpdateFull(t, b), updFailed, nil) }},
		{"env-future-subscribe", "§6 future subscribe (kind 3): future 1.9, subscriber node 4",
			encodeFutureSubscribe(goldenF19, 4), func(t *testing.T, b []byte) {
				fid, holder, err := decodeFutureSubscribe(b)
				same(t, [2]any{fid, holder}, [2]any{goldenF19, ids.NodeID(4)}, err)
			}},
		{"dgc-single", "§3 DGC envelope (0xB7), one message: target 2.7, from 1.3, clock 42@2.7, consensus",
			encodeDGC(batch[:1]), func(t *testing.T, b []byte) {
				got, err := decodeDGC(b)
				same(t, got, batch[:1], err)
			}},
		{"dgc-batch", "§3 DGC envelope (0xB7), two messages: the dgc-single one, and to 2.8 from 1.3, clock 7@1.3",
			encodeDGC(batch), func(t *testing.T, b []byte) {
				got, err := decodeDGC(b)
				same(t, got, batch, err)
			}},
		{"dgc-batch-response", "§3 DGC response (0xB7) to dgc-batch: one present response (clock 42@2.7, parent, depth 3), one absent",
			encodeDGCResponse(batch, resps), func(t *testing.T, b []byte) {
				got, err := decodeDGCResponse(b, batch)
				same(t, got, resps, err)
			}},
		{"env-migrate", `§7 migration envelope (kind 5): 2.7 "ctr" of kind "test/counter", state {peer: Ref 1.3, total: 41}, one queued "add" from 1.3`,
			encodeMigration(goldenMigration), func(t *testing.T, b []byte) {
				got, err := decodeMigration(b)
				same(t, got, goldenMigration, err)
			}},
		{"migrate-response-ok", "§7 migrate response, success: new identity 3.1",
			encodeMigrateResponse(ids.ActivityID{Node: 3, Seq: 1}, nil), func(t *testing.T, b []byte) {
				id, err := decodeMigrateResponse(b)
				same(t, id, ids.ActivityID{Node: 3, Seq: 1}, err)
			}},
		{"migrate-response-failed", `§7 migrate response, refused: "unknown kind"`,
			encodeMigrateResponse(ids.Nil, errors.New("unknown kind")), func(t *testing.T, b []byte) {
				if _, err := decodeMigrateResponse(b); !errors.Is(err, ErrMigrationFailed) || !strings.HasSuffix(err.Error(), ": unknown kind") {
					t.Fatalf("decode error = %v, want ErrMigrationFailed: unknown kind", err)
				}
			}},
		{"checkpoint", `§11 checkpoint payload: the env-migrate envelope, names "counter" and "ctr"`,
			encodeCheckpoint(ckpt), func(t *testing.T, b []byte) {
				got, err := decodeCheckpoint(b)
				same(t, got, ckpt, err)
			}},
		{"fanout-shared", `§10 fan-out (kind 6), shared args Int(21): root 1, aggKey 17, "double" to 2.7, 2.8 and 3.1`,
			encodeFanOut(goldenFanShared), func(t *testing.T, b []byte) {
				got, err := decodeFanOut(b)
				same(t, got, goldenFanShared, err)
			}},
		{"fanout-scatter", `§10 fan-out (kind 6), per-member args: root 1, "work" to 2.7 ("a") and 2.8 (Ref 1.3)`,
			encodeFanOut(goldenFanScatter), func(t *testing.T, b []byte) {
				got, err := decodeFanOut(b)
				same(t, got, goldenFanScatter, err)
			}},
		{"fanagg", "§10 fan-agg (kind 7): root 1, parentKey 17, the two env-future-update vectors",
			encodeFanAgg(1, 17, aggUpdates), func(t *testing.T, b []byte) {
				root, key, updates, err := decodeFanAgg(b)
				same(t, []any{root, key, updates}, []any{ids.NodeID(1), uint64(17), aggUpdates}, err)
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.check(t, golden(t, c.name, c.doc, c.enc))
		})
	}
}
