package active

// FuzzProtocolEnvelope aims the fuzzer at the §3 envelope decoders
// (WIRE.md §3, §6, §7): request header, future update, future subscribe,
// the DGC envelope, the DGC response (reply, read against the DGC
// envelope data decodes to) and the migrate response. Every one of them
// reads bytes a hostile or corrupted peer controls. None may panic,
// every refusal must carry errBadEnvelope, and anything one accepts must
// survive encode ⇄ decode unchanged; a DGC envelope or response must
// re-encode to its very bytes.

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wire"
)

func FuzzProtocolEnvelope(f *testing.F) {
	for _, name := range []string{
		"env-request", "env-future-update", "env-future-update-failed", "env-future-subscribe",
		"dgc-single", "migrate-response-ok", "migrate-response-failed",
	} {
		f.Add(vector(f, name), []byte(nil))
	}
	f.Add(vector(f, "dgc-batch"), vector(f, "dgc-batch-response"))
	f.Add(vector(f, "dgc-batch-response"), vector(f, "dgc-batch"))
	for _, c := range malformedDGC {
		f.Add(c.req, c.reply)
	}
	f.Add([]byte{envRequest, 1, 0, 0, 0}, []byte(nil))
	f.Add([]byte{migrateOK}, []byte(nil))
	// Kind 4, the retired redirect envelope (old and new identity): no
	// decoder may take it for one of its own.
	f.Add([]byte{4, 2, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0}, []byte(nil))

	f.Fuzz(func(t *testing.T, data, reply []byte) {
		var dec wire.Decoder
		refused := func(what string, err error) {
			if !errors.Is(err, errBadEnvelope) {
				t.Fatalf("%s refusal %v lost its sentinel", what, err)
			}
		}
		if req, rest, err := decodeRequestHeader(data); err == nil {
			// The header layout is fixed-width: it re-encodes to the very
			// bytes it was read from.
			if !bytes.Equal(append(appendRequestHeader(nil, req), rest...), data) {
				t.Fatalf("request header not canonical: %x", data)
			}
			if req.Args, err = dec.Decode(rest); err == nil {
				again, rest2, err := decodeRequestHeader(encodeRequest(req))
				if err != nil {
					t.Fatalf("re-decode of accepted request failed: %v", err)
				}
				if again.Args, err = dec.Decode(rest2); err != nil || !again.Args.Equal(req.Args) {
					t.Fatalf("request args round trip: %v", err)
				}
				again.Args = req.Args
				if !reflect.DeepEqual(again, req) {
					t.Fatalf("request round trip:\n%+v\n%+v", req, again)
				}
			}
		} else {
			refused("request", err)
		}
		if u, rest, err := decodeFutureUpdateHeader(data); err == nil {
			if u.Value, err = dec.Decode(rest); err == nil {
				again, rest2, err := decodeFutureUpdateHeader(encodeFutureUpdate(u))
				if err != nil {
					t.Fatalf("re-decode of accepted future update failed: %v", err)
				}
				if again.Value, err = dec.Decode(rest2); err != nil || !again.Value.Equal(u.Value) {
					t.Fatalf("future update value round trip: %v", err)
				}
				if again.Future != u.Future || again.Failed != u.Failed || again.Err != u.Err {
					t.Fatalf("future update round trip:\n%+v\n%+v", u, again)
				}
			}
		} else {
			refused("future update", err)
		}
		if fid, holder, err := decodeFutureSubscribe(data); err == nil {
			if !bytes.Equal(encodeFutureSubscribe(fid, holder), data) {
				t.Fatalf("subscribe not canonical: %x", data)
			}
		} else {
			refused("subscribe", err)
		}
		if obs, err := decodeDGC(data); err == nil {
			if !bytes.Equal(encodeDGC(obs), data) {
				t.Fatalf("dgc envelope not canonical: %x", data)
			}
			if resps, err := decodeDGCResponse(reply, obs); err == nil {
				if !bytes.Equal(encodeDGCResponse(obs, resps), reply) {
					t.Fatalf("dgc response not canonical: %x", reply)
				}
			} else {
				refused("dgc response", err)
			}
		} else {
			refused("dgc envelope", err)
		}
		if id, err := decodeMigrateResponse(data); err == nil {
			if again, err := decodeMigrateResponse(encodeMigrateResponse(id, nil)); err != nil || again != id {
				t.Fatalf("migrate response round trip: %v", err)
			}
		} else if errors.Is(err, ErrMigrationFailed) {
			refusal := errors.New(string(data[1:]))
			if _, again := decodeMigrateResponse(encodeMigrateResponse(id, refusal)); again == nil || again.Error() != err.Error() {
				t.Fatalf("migrate refusal round trip: %v vs %v", again, err)
			}
		} else {
			refused("migrate response", err)
		}
	})
}

// A DGC envelope of two messages (to 2.7 and 2.8, from 1.3, clock 42@1.3)
// and the malformed exchanges around it that the decoders must refuse.
var (
	dgcTwo      = []byte{dgcTag, 2, 2, 7, 1, 3, 2, 42, 2, 8, 1, 3, 2, 42}
	dgcTwoReply = []byte{dgcTag, 2, 0x0b, 3, 0}
	// malformedDGC pairs a request with a reply; refuseReply marks a
	// valid request whose reply is the fault.
	malformedDGC = []struct {
		name        string
		req, reply  []byte
		refuseReply bool
	}{
		{"non-minimal count", []byte{dgcTag, 0x81, 0x00, 2, 7, 1, 3, 2, 42}, nil, false},
		{"non-minimal target seq", []byte{dgcTag, 1, 2, 0x87, 0x00, 1, 3, 2, 42}, nil, false},
		{"unknown message flag", []byte{dgcTag, 1, 2, 7, 1, 3, 0x06, 42}, nil, false},
		{"count past the payload", []byte{dgcTag, 3, 2, 7, 1, 3, 2, 42, 2, 8, 1, 3, 2, 42}, nil, false},
		{"trailing bytes", append(slices.Clone(dgcTwo), 0), nil, false},
		{"unknown response flag", dgcTwo, []byte{dgcTag, 2, 0x4b, 3, 0}, true},
		{"response count under the request's", dgcTwo, []byte{dgcTag, 1, 0x0b, 3}, true},
		{"response count over the request's", dgcTwo, []byte{dgcTag, 3, 0x0b, 3, 0, 0}, true},
		{"non-minimal depth", dgcTwo, []byte{dgcTag, 2, 0x0b, 0x83, 0x00, 0}, true},
	}
)

// TestDGCEnvelopeRefusals: each malformed DGC exchange is refused with
// errBadEnvelope, and the well-formed one they are cut from is accepted.
func TestDGCEnvelopeRefusals(t *testing.T) {
	obs, err := decodeDGC(dgcTwo)
	if err != nil || len(obs) != 2 {
		t.Fatalf("decodeDGC(%x) = %v, %v", dgcTwo, obs, err)
	}
	if resps, err := decodeDGCResponse(dgcTwoReply, obs); err != nil || resps[0] == nil || resps[1] != nil {
		t.Fatalf("decodeDGCResponse(%x) = %v, %v", dgcTwoReply, resps, err)
	}
	for _, c := range malformedDGC {
		obs, err := decodeDGC(c.req)
		if c.refuseReply {
			if err != nil {
				t.Fatalf("%s: request %x refused: %v", c.name, c.req, err)
			}
			_, err = decodeDGCResponse(c.reply, obs)
		}
		if !errors.Is(err, errBadEnvelope) {
			t.Errorf("%s: got %v, want errBadEnvelope", c.name, err)
		}
	}
}
