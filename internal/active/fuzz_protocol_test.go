package active

// FuzzProtocolEnvelope aims the fuzzer at the §3 envelope decoders
// (WIRE.md §3, §6, §7): request header, future update, future subscribe,
// single and batched DGC payloads, the batched DGC response and the
// migrate response. Every one of them reads bytes a hostile or
// corrupted peer controls. None may panic, every refusal must carry
// errBadEnvelope, and anything one accepts must survive encode ⇄ decode
// unchanged.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func FuzzProtocolEnvelope(f *testing.F) {
	for _, name := range []string{
		"env-request", "env-future-update", "env-future-update-failed", "env-future-subscribe",
		"dgc-single", "dgc-batch", "dgc-batch-response",
		"migrate-response-ok", "migrate-response-failed",
	} {
		f.Add(vector(f, name))
	}
	f.Add([]byte{envRequest, 1, 0, 0, 0})
	f.Add([]byte{dgcBatchTag, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{migrateOK})
	// Kind 4, the retired redirect envelope (old and new identity): no
	// decoder may take it for one of its own.
	f.Add([]byte{4, 2, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
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
		if target, msg, err := decodeDGCPayload(data); err == nil {
			t2, m2, err := decodeDGCPayload(encodeDGCPayload(target, msg))
			if err != nil || t2 != target || m2 != msg {
				t.Fatalf("dgc payload round trip: %v", err)
			}
		} else {
			refused("dgc payload", err)
		}
		if entries, err := decodeDGCBatchPayload(data); err == nil {
			again, err := decodeDGCBatchPayload(encodeDGCBatchPayload(entries))
			if err != nil || !reflect.DeepEqual(again, entries) {
				t.Fatalf("dgc batch round trip: %v", err)
			}
		} else {
			refused("dgc batch", err)
		}
		if resps, err := decodeDGCBatchResponse(data); err == nil {
			again, err := decodeDGCBatchResponse(encodeDGCBatchResponse(resps))
			if err != nil || !reflect.DeepEqual(again, resps) {
				t.Fatalf("dgc batch response round trip: %v", err)
			}
		} else {
			refused("dgc batch response", err)
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
