package cluster

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzClusterEnvelope throws arbitrary bytes at every cluster decoder
// (WIRE.md §8, kinds 1–11): join and lease exchanges arrive from processes
// that are not members yet, so they are the first thing a hostile peer
// reaches. None may panic, every refusal must carry ErrBadEnvelope, and
// anything one accepts must survive encode ⇄ decode unchanged. The seeds
// include the directory announce the cluster channel also carries and
// the retired kind 12, which every cluster decoder must refuse.
func FuzzClusterEnvelope(f *testing.F) {
	for _, name := range []string{
		"cluster-join", "cluster-join-ok", "cluster-lease", "cluster-lease-ok",
		"cluster-node-up", "cluster-node-dead", "cluster-node-left", "cluster-ping",
		"cluster-pong", "cluster-ack", "cluster-err", "location-announce",
	} {
		f.Add(vector(f, name))
	}
	f.Add([]byte{MsgJoinOK, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{MsgErr + 1, 0x80, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, got, again any, err, errAgain error) {
			t.Helper()
			if err != nil {
				if !errors.Is(err, ErrBadEnvelope) {
					t.Fatalf("%s refusal %v lost its sentinel", what, err)
				}
				return
			}
			if errAgain != nil || !reflect.DeepEqual(got, again) {
				t.Fatalf("%s round trip: %v\n%+v\n%+v", what, errAgain, got, again)
			}
		}
		j, err := DecodeJoin(data)
		j2, err2 := DecodeJoin(EncodeJoin(j))
		check("join", j, j2, err, err2)
		ok, err := DecodeJoinOK(data)
		ok2, err2 := DecodeJoinOK(EncodeJoinOK(ok))
		check("join-ok", ok, ok2, err, err2)
		l, err := DecodeLease(data)
		l2, err2 := DecodeLease(EncodeLease(l))
		check("lease", l, l2, err, err2)
		lok, err := DecodeLeaseOK(data)
		lok2, err2 := DecodeLeaseOK(EncodeLeaseOK(lok))
		check("lease-ok", lok, lok2, err, err2)
		kind, ev, err := DecodeNodeEvent(data)
		kind2, ev2, err2 := DecodeNodeEvent(EncodeNodeEvent(kind, ev))
		check("node event", [2]any{kind, ev}, [2]any{kind2, ev2}, err, err2)
		if err := DecodeResponse(data); err != nil && !errors.Is(err, ErrBadEnvelope) {
			// A well-formed refusal: its reason survives a re-encode.
			again := DecodeResponse(EncodeErr(strings.TrimPrefix(err.Error(), "cluster: ")))
			if again == nil || again.Error() != err.Error() {
				t.Fatalf("err round trip: %v vs %v", again, err)
			}
		}
	})
}
