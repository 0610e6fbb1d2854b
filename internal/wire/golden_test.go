package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ids"
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

// TestGoldenValues pins the value encoding (WIRE.md §1): one vector per
// kind, encoded to exactly the checked-in bytes and decoded back to an
// equal value.
func TestGoldenValues(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		v         Value
	}{
		{"value-null", "§1 Null (tag 1)", Null()},
		{"value-bool", "§1 Bool (tag 2): true", Bool(true)},
		{"value-int", "§1 Int (tag 3): -300, zig-zag varint", Int(-300)},
		{"value-float", "§1 Float (tag 4): 1.5, IEEE-754 bits little-endian", Float(1.5)},
		{"value-string", `§1 String (tag 5): "grid"`, String("grid")},
		{"value-bytes", "§1 Bytes (tag 6): de ad be ef", Bytes([]byte{0xde, 0xad, 0xbe, 0xef})},
		{"value-list", `§1 List (tag 7): [1, "x", null]`, List(Int(1), String("x"), Null())},
		{"value-dict", `§1 Dict (tag 8): {"b": 2, "a": false}, keys written sorted`,
			Dict(map[string]Value{"b": Int(2), "a": Bool(false)})},
		{"value-ref", "§1 Ref (tag 9): activity 3.200", Ref(ids.ActivityID{Node: 3, Seq: 200})},
		{"value-future", "§1/§6 Future (tag 10): future 2.9 owned by activity 3.7",
			FutureVal(FutureRef{ID: ids.FutureID{Node: 2, Seq: 9}, Owner: ids.ActivityID{Node: 3, Seq: 7}})},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := golden(t, c.name, c.doc, Encode(nil, c.v))
			var d Decoder
			got, err := d.Decode(want)
			if err != nil || got.Kind() != c.v.Kind() || !got.Equal(c.v) {
				t.Fatalf("decode = %v, %v; want %v", got, err, c.v)
			}
		})
	}
}
