package location

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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

// TestGoldenLocationEnvelopes pins the directory envelopes (WIRE.md §9):
// announce, query and both reply forms, each encoded to exactly the
// checked-in bytes and decoded back to an equal value.
func TestGoldenLocationEnvelopes(t *testing.T) {
	rebinds := []Rebind{
		{Old: ids.ActivityID{Node: 2, Seq: 7}, New: ids.ActivityID{Node: 3, Seq: 1}},
		{Old: ids.ActivityID{Node: 2, Seq: 8}, New: ids.ActivityID{Node: 4, Seq: 300}},
	}
	id := ids.ActivityID{Node: 3, Seq: 1}
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
		{"location-announce", "§9 announce (0xA1): 2.7 → 3.1, 2.8 → 4.300", AppendAnnounce(nil, rebinds),
			func(t *testing.T, b []byte) { got, err := DecodeAnnounce(b); same(t, got, rebinds, err) }},
		{"location-query", "§9 query (0xA2): where is 2.7?", AppendQuery(nil, ids.ActivityID{Node: 2, Seq: 7}),
			func(t *testing.T, b []byte) {
				got, err := DecodeQuery(b)
				same(t, got, ids.ActivityID{Node: 2, Seq: 7}, err)
			}},
		{"location-reply-known", "§9 reply (0xA3), known: 3.1", AppendReply(nil, id, true),
			func(t *testing.T, b []byte) {
				got, known, err := DecodeReply(b)
				same(t, [2]any{got, known}, [2]any{id, true}, err)
			}},
		{"location-reply-unknown", "§9 reply (0xA3), unknown: the ID field is Nil", AppendReply(nil, id, false),
			func(t *testing.T, b []byte) {
				got, known, err := DecodeReply(b)
				same(t, [2]any{got, known}, [2]any{ids.Nil, false}, err)
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.check(t, golden(t, c.name, c.doc, c.enc))
		})
	}
}
