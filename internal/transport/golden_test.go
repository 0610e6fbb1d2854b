package transport

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

// TestGoldenBatch pins the batch envelope (WIRE.md §5): the example is
// encoded to exactly the checked-in bytes and decoded back to equal
// items.
func TestGoldenBatch(t *testing.T) {
	items := []BatchItem{
		{Class: ClassApp, Payload: []byte{0x04, 0x01, 0x02}},
		{Class: ClassFuture, Payload: bytes.Repeat([]byte{0xf0}, 130)},
		{Class: ClassCluster, Payload: []byte{0x08}},
	}
	want := golden(t, "batch", "§5 batch envelope: an app, a 130-byte future (two-byte length) and a cluster message",
		AppendBatch(nil, items))
	got, err := DecodeBatch(want)
	if err != nil || !reflect.DeepEqual(got, items) {
		t.Fatalf("decode = %+v, %v; want %+v", got, err, items)
	}
}
