package store

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

// TestGoldenRecords pins the checkpoint log record framing (WIRE.md §11):
// a checkpoint and a tombstone, each encoded to exactly the checked-in
// bytes and decoded back to an equal record.
func TestGoldenRecords(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		rec       Record
	}{
		{"record-checkpoint", `§11 log record, checkpoint (kind 1): activity 2.7, payload "ckpt"`,
			Record{Kind: KindCheckpoint, ID: aid(2, 7), Payload: []byte("ckpt")}},
		{"record-tombstone", "§11 log record, tombstone (kind 2): activity 2.7",
			Record{Kind: KindTombstone, ID: aid(2, 7)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := golden(t, c.name, c.doc, AppendRecord(nil, c.rec))
			got, n, err := DecodeRecord(want)
			if err != nil || n != len(want) || !reflect.DeepEqual(got, c.rec) {
				t.Fatalf("decode = %+v (%d bytes), %v; want %+v", got, n, err, c.rec)
			}
		})
	}
}
