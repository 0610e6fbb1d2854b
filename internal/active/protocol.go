// Package active is the live active-object runtime: the Go equivalent of
// the ProActive middleware the paper implements its DGC in (§4.1).
//
// An active object is a remotely accessible object with its own thread
// (goroutine) and request queue. Method calls are asynchronous and return a
// future. Every value crossing an activity boundary goes through the wire
// codec, enforcing the no-sharing property and giving the DGC its
// deserialization hook. Each node (process) owns a localgc.Heap whose
// pinned stubs make and remove the per-activity core.Collector's edges,
// and a driver goroutine broadcasts DGC messages every TTB.
package active

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/wire"
)

// Envelope kinds for node-to-node payloads.
const (
	envRequest byte = iota + 1
	envFutureUpdate
	envFutureSubscribe
	// Kind 4 was the redirect envelope; a redirect is now a one-pair
	// location.TagAnnounce (WIRE.md §7). The number stays reserved.
	_
	// envMigrate is the migration envelope: an activity's serialized state
	// (payload, pending queue), shipped source → destination as a
	// request/response exchange whose response carries the new identity.
	envMigrate
	// envFanOut carries a tree-structured group scatter (WIRE.md §10): a
	// set of per-destination request bundles a relay node delivers
	// locally and/or splits among at most fanOutDegree child relays.
	envFanOut
	// envFanAgg carries aggregated group replies one tree hop toward the
	// root: embedded future-update envelopes plus the parent relay
	// record they belong to (key 0 = the receiver is the root).
	envFanAgg
)

// FutureID identifies a future on its home node (the node that created
// it). The zero value means "no future expected" (one-way call). It is an
// alias of ids.FutureID because first-class futures travel across nodes —
// inside values (wire.FutureRef) as well as in envelopes.
type FutureID = ids.FutureID

// request is the application-level request envelope.
type request struct {
	// Target is the activity being called.
	Target ids.ActivityID
	// Sender is the calling activity (the node root for a Handle's call).
	Sender ids.ActivityID
	// Future is where the result should be delivered (zero for one-way).
	Future FutureID
	// Method is the behavior method name.
	Method string
	// Args is the delivered arguments, which the request owns: decoded
	// from its own bytes, or kept in encoded form (WIRE.md §2). A request
	// on the send path carries its args encoded instead (sendRequest).
	Args wire.Value
	// Via is the node-local relay-record key a tree fan-out delivery
	// carries (WIRE.md §10): the reply is intercepted and aggregated
	// hop-by-hop instead of traveling straight to the future's home.
	// Zero — the ordinary case — replies directly. Never serialized: a
	// request leaving the node detaches from its record first.
	Via uint64
}

// errBadEnvelope reports a malformed node-to-node payload.
var errBadEnvelope = errors.New("active: malformed envelope")

// appendRequestHeader encodes everything of a request envelope up to (not
// including) the args value.
func appendRequestHeader(buf []byte, req request) []byte {
	buf = append(buf, envRequest)
	buf = wire.AppendID(buf, req.Target)
	buf = wire.AppendID(buf, req.Sender)
	buf = wire.AppendFuture(buf, req.Future)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Method)))
	buf = append(buf, req.Method...)
	return buf
}

// requestRoom is the length of a request envelope's header for method:
// the room a sender leaves in front of the encoded args (wire.EncodeAfter,
// wire.Codec.EncodeAfter), so the envelope is sealed in place.
func requestRoom(method string) int { return 1 + 3*8 + 4 + len(method) }

// encodeArgs encodes args behind the room of method's request header.
func encodeArgs(method string, args wire.Value) []byte {
	return wire.EncodeAfter(requestRoom(method), args)
}

// sealRequest writes req's header into the room at the front of enc and
// returns the envelope.
func sealRequest(enc []byte, req request) []byte {
	appendRequestHeader(enc[:0], req)
	return enc
}

func encodeRequest(req request) []byte {
	return sealRequest(encodeArgs(req.Method, req.Args), req)
}

// decodeRequestHeader decodes a request envelope's header and returns the
// raw args bytes: the args are decoded at delivery (deliverEncoded), where
// their recipient is known.
func decodeRequestHeader(buf []byte) (request, []byte, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(envRequest)
	req := request{Target: r.ID(), Sender: r.ID(), Future: r.Future()}
	req.Method = string(r.Next(int(r.U32())))
	return req, r.Rest(), r.Err()
}

// futureUpdate is the result envelope flowing callee → caller (§4.1
// "Reference Orientation": it never wakes an idle activity). With
// first-class futures (WIRE.md §6) the same envelope also propagates a
// resolution along the forwarding chain: every node registered as a
// holder of the future receives one, addressed by the future's home
// identity, so a forwarded result reaches whichever activity finally
// touches it. The decoded value's references DO create edges at the
// receiving holder (the §2.2 deserialization hook), exactly as a request
// payload's would.
type futureUpdate struct {
	Future FutureID
	// Failed indicates the behavior returned an error instead of a value.
	Failed bool
	// Err is the error text when Failed.
	Err string
	// Value is the result.
	Value wire.Value
}

// updateRoom is the header length of a successful future update: the
// room a reply's encoding leaves in front of the value (sealUpdate).
const updateRoom = 1 + 8 + 1 + 4

// appendUpdateHeader encodes everything of a future-update envelope up
// to (not including) the value.
func appendUpdateHeader(buf []byte, u futureUpdate) []byte {
	buf = append(buf, envFutureUpdate)
	buf = wire.AppendFuture(buf, u.Future)
	if u.Failed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.Err)))
	return append(buf, u.Err...)
}

// sealUpdate writes the header of a successful update of fid into the
// updateRoom bytes at the front of enc and returns the envelope.
func sealUpdate(enc []byte, fid FutureID) []byte {
	appendUpdateHeader(enc[:0], futureUpdate{Future: fid})
	return enc
}

func encodeFutureUpdate(u futureUpdate) []byte {
	buf := wire.EncodeAfter(updateRoom+len(u.Err), u.Value)
	appendUpdateHeader(buf[:0], u)
	return buf
}

func decodeFutureUpdateHeader(buf []byte) (futureUpdate, []byte, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(envFutureUpdate)
	u := futureUpdate{Future: r.Future(), Failed: r.Byte() != 0}
	u.Err = string(r.Next(int(r.U32())))
	return u, r.Rest(), r.Err()
}

// futureSubscribe asks a future's home node to register a holder after
// the fact (WIRE.md §6): the fallback when a holder lifts a reference
// whose proxy is gone (reclaimed after resolution) or when a forwarding
// node without an entry passes the reference on. The home node answers
// with an ordinary future-update — the value if it still has the entry,
// a Failed/ErrFutureUnavailable update otherwise — so the subscriber
// can never wait forever.
func encodeFutureSubscribe(fid FutureID, holder ids.NodeID) []byte {
	buf := make([]byte, 0, 1+8+4)
	buf = append(buf, envFutureSubscribe)
	buf = wire.AppendFuture(buf, fid)
	return binary.LittleEndian.AppendUint32(buf, uint32(holder))
}

func decodeFutureSubscribe(buf []byte) (FutureID, ids.NodeID, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(envFutureSubscribe)
	fid, holder := r.Future(), ids.NodeID(r.U32())
	return fid, holder, r.Done()
}

// dgcTag opens every DGC exchange (WIRE.md §3), request and response
// alike: tag, uvarint count, then count core records. A request carries
// the (target, message) records of one beat toward one node — a single
// message when the node beats each message on its own — and its response
// one record per message, in the same order.
const dgcTag byte = 0xB7

// dgcHead starts an exchange of count records, with room for them
// at size bytes each.
func dgcHead(count, size int) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen32+count*size)
	buf = append(buf, dgcTag)
	return binary.AppendUvarint(buf, uint64(count))
}

// encodeDGC packs the messages of one exchange.
func encodeDGC(obs []core.Outbound) []byte {
	buf := dgcHead(len(obs), core.MaxMessageSize)
	for _, ob := range obs {
		buf = core.AppendMessage(buf, ob)
	}
	return buf
}

// openDGC checks a whole exchange's messages and leaves r at the first of
// them; it returns their count.
func openDGC(r *wire.Reader, buf []byte) (int, error) {
	r.Reset(buf, errBadEnvelope)
	r.Expect(dgcTag)
	count := r.Count(r.Len() / core.MinMessageSize)
	check := *r
	for range count {
		core.ReadMessage(&check)
	}
	return count, check.Done()
}

func decodeDGC(buf []byte) ([]core.Outbound, error) {
	var r wire.Reader
	count, err := openDGC(&r, buf)
	if err != nil {
		return nil, err
	}
	obs := make([]core.Outbound, count)
	for i := range obs {
		obs[i] = core.ReadMessage(&r)
	}
	return obs, nil
}

// encodeDGCResponse packs the responses to obs positionally; a nil
// response means its target is gone.
func encodeDGCResponse(obs []core.Outbound, resps []*core.Response) []byte {
	buf := dgcHead(len(resps), core.MaxResponseSize)
	for i, r := range resps {
		buf = core.AppendResponse(buf, r, obs[i].Msg.Clock)
	}
	return buf
}

// decodeDGCResponse reads the response to the exchange of obs, refusing
// one whose count is not theirs.
func decodeDGCResponse(buf []byte, obs []core.Outbound) ([]*core.Response, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(dgcTag)
	if r.Count(len(obs)) != len(obs) {
		r.Fail()
	}
	resps := make([]*core.Response, len(obs))
	got := make([]core.Response, len(obs))
	for i, ob := range obs {
		if resp, present := core.ReadResponse(&r, ob.Msg.Clock); present {
			got[i] = resp
			resps[i] = &got[i]
		}
	}
	return resps, r.Done()
}

// migrationState is one persistent-state entry of a migrating activity.
type migrationState struct {
	Key   string
	Value wire.Value
}

// migrationRequest is one pending queue item traveling in the envelope:
// the request header plus its already-decoded arguments (re-encoded into
// the envelope; the destination re-binds references on decode exactly as
// a freshly delivered request would).
type migrationRequest struct {
	Sender ids.ActivityID
	Future FutureID
	Method string
	Args   wire.Value
}

// migration is the envelope shipped by Handle.Migrate/Context.MigrateTo:
// everything the destination needs to re-home the activity — identity,
// registered behavior kind, persistent state, pending request queue.
type migration struct {
	Old   ids.ActivityID
	Name  string
	Kind  string
	State []migrationState
	Queue []migrationRequest
}

// encodeMigration packs the envelope: tag, old identity, name, kind, then
// uvarint-counted state entries (key + value) and queue items (sender +
// future + method + args).
func encodeMigration(m migration) []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, envMigrate)
	buf = wire.AppendID(buf, m.Old)
	buf = wire.AppendString(buf, m.Name)
	buf = wire.AppendString(buf, m.Kind)
	buf = binary.AppendUvarint(buf, uint64(len(m.State)))
	for _, e := range m.State {
		buf = wire.AppendString(buf, e.Key)
		buf = wire.Encode(buf, e.Value)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Queue)))
	for _, q := range m.Queue {
		buf = wire.AppendID(buf, q.Sender)
		buf = wire.AppendFuture(buf, q.Future)
		buf = wire.AppendString(buf, q.Method)
		buf = wire.Encode(buf, q.Args)
	}
	return buf
}

// decodeMigration unpacks a migration envelope. The caller binds the
// values to the freshly created activity after rewriting self-references.
func decodeMigration(buf []byte) (migration, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(envMigrate)
	var dec wire.Decoder
	m := migration{Old: r.ID(), Name: r.String(), Kind: r.String()}
	for n := r.Count(r.Len()); n > 0 && r.Err() == nil; n-- {
		m.State = append(m.State, migrationState{Key: r.String(), Value: r.Value(&dec)})
	}
	for n := r.Count(r.Len()); n > 0 && r.Err() == nil; n-- {
		m.Queue = append(m.Queue, migrationRequest{Sender: r.ID(), Future: r.Future(), Method: r.String(), Args: r.Value(&dec)})
	}
	return m, r.Done()
}

// Migration responses: status byte + new identity, or status byte + error
// text. The exchange rides the transport's Call leg, so the source learns
// the new identity synchronously and can install the forwarder before it
// releases anything.
const (
	migrateOK     byte = 0
	migrateFailed byte = 1
)

func encodeMigrateResponse(newID ids.ActivityID, err error) []byte {
	if err != nil {
		buf := make([]byte, 0, 1+len(err.Error()))
		buf = append(buf, migrateFailed)
		return append(buf, err.Error()...)
	}
	buf := make([]byte, 0, 1+8)
	buf = append(buf, migrateOK)
	return wire.AppendID(buf, newID)
}

func decodeMigrateResponse(buf []byte) (ids.ActivityID, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	switch r.Byte() {
	case migrateOK:
		id := r.ID()
		return id, r.Done()
	case migrateFailed:
		return ids.Nil, fmt.Errorf("%w: %s", ErrMigrationFailed, r.Rest())
	}
	return ids.Nil, errBadEnvelope
}
