package tcpnet

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/transport"
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

// TestGoldenFrames pins the TCP framing (WIRE.md §4): one vector per
// frame type, each encoded to exactly the checked-in bytes and read back
// (length prefix included) to an equal frame.
func TestGoldenFrames(t *testing.T) {
	batch := transport.AppendBatch(nil, []transport.BatchItem{
		{Class: transport.ClassApp, Payload: []byte{0x04}},
		{Class: transport.ClassFuture, Payload: []byte{0x02}},
	})
	for _, c := range []struct {
		name, doc string
		f         frame
	}{
		{"frame-oneway", "§4 one-way frame (type 1): class app, node 1 → 2, payload 01 02",
			frame{typ: frameOneWay, class: transport.ClassApp, src: 1, dst: 2, payload: []byte{1, 2}}},
		{"frame-call", "§4 call frame (type 2): class dgc, node 1 → 2, seq 7, payload aa",
			frame{typ: frameCall, class: transport.ClassDGC, src: 1, dst: 2, seq: 7, payload: []byte{0xaa}}},
		{"frame-response", "§4 response frame (type 3): class dgc, unknown-node flag, node 2 → 1, seq 7, empty payload",
			frame{typ: frameResponse, class: transport.ClassDGC, flags: flagUnknownNode, src: 2, dst: 1, seq: 7}},
		{"frame-batch", "§4 batch frame (type 4): class 0, node 1 → 2, a §5 envelope of two one-byte messages",
			frame{typ: frameBatch, src: 1, dst: 2, payload: batch}},
		{"frame-hello", `§4 hello frame (type 5): node 1 → 2, listen address "127.0.0.1:7946"`,
			frame{typ: frameHello, src: 1, dst: 2, payload: []byte("127.0.0.1:7946")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := golden(t, c.name, c.doc, appendFrame(nil, c.f))
			got, err := readFrame(bytes.NewReader(want))
			if err != nil || !reflect.DeepEqual(got, c.f) {
				t.Fatalf("read = %+v, %v; want %+v", got, err, c.f)
			}
		})
	}
}
