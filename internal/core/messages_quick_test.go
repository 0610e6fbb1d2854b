package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/lamport"
	"repro/internal/wire"
)

func randomActivityID(r *rand.Rand) ids.ActivityID {
	return ids.ActivityID{Node: ids.NodeID(r.Uint32()), Seq: r.Uint32()}
}

// TestMessageCodecProperty: every message round-trips through its
// record, within the bound.
func TestMessageCodecProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(Message{
				Sender:    randomActivityID(r),
				Clock:     lamport.Clock{Value: r.Uint64(), Owner: randomActivityID(r)},
				Consensus: r.Intn(2) == 0,
			})
		},
	}
	prop := func(m Message) bool {
		buf := EncodeMessage(m)
		got, err := DecodeMessage(buf)
		return err == nil && got == m && len(buf) <= MaxMessageSize
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestResponseCodecProperty: every response round-trips, including the
// §7.2 depth field, within the bound, whether or not its clock is the
// message's.
func TestResponseCodecProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(Response{
				Clock:            lamport.Clock{Value: r.Uint64(), Owner: randomActivityID(r)},
				HasParent:        r.Intn(2) == 0,
				ConsensusReached: r.Intn(2) == 0,
				Depth:            r.Uint32(),
			})
		},
	}
	prop := func(resp Response) bool {
		for _, sent := range []lamport.Clock{resp.Clock, {Value: resp.Clock.Value + 1}} {
			buf := AppendResponse(nil, &resp, sent)
			var r wire.Reader
			r.Reset(buf, ErrBadRecord)
			got, present := ReadResponse(&r, sent)
			if r.Done() != nil || !present || got != resp || len(buf) > MaxResponseSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
