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

// dgcPayload is the DGC exchange envelope: target activity + fixed-size
// core.Message; the core.Response (or nothing, if the target is gone)
// rides back on the same connection.
func encodeDGCPayload(target ids.ActivityID, msg core.Message) []byte {
	buf := make([]byte, 0, 8+core.MessageWireSize)
	buf = wire.AppendID(buf, target)
	return append(buf, core.EncodeMessage(msg)...)
}

func decodeDGCPayload(buf []byte) (ids.ActivityID, core.Message, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	e := readDGCEntry(&r)
	return e.Target, e.Msg, r.Done()
}

// readDGCEntry reads one 8 B target + fixed-size core.Message pair.
func readDGCEntry(r *wire.Reader) dgcBatchEntry {
	e := dgcBatchEntry{Target: r.ID()}
	if b := r.Next(core.MessageWireSize); b != nil {
		e.Msg, _ = core.DecodeMessage(b) // fails only on a short buffer
	}
	return e
}

// dgcSingleSize is the exact length of a single-message DGC payload. A
// batched payload always differs (tag + count prefix ahead of 33-byte
// entries), which is how HandleCall tells the two apart without a version
// byte in the single-message format.
const dgcSingleSize = 8 + core.MessageWireSize

// dgcBatchTag marks a batched DGC payload (and its batched response):
// with batching enabled, one beat ships every due message toward a
// destination node in a single exchange instead of one call per
// (referencer, referenced) pair.
const dgcBatchTag byte = 0xB7

// isDGCBatch reports whether a ClassDGC payload is a batch envelope.
func isDGCBatch(buf []byte) bool {
	return len(buf) > 0 && buf[0] == dgcBatchTag && len(buf) != dgcSingleSize
}

// dgcBatchEntry is one (target, message) pair of a batched beat.
type dgcBatchEntry struct {
	Target ids.ActivityID
	Msg    core.Message
}

// encodeDGCBatchPayload packs entries as: tag byte, uvarint count, then
// count × (8 B target + core.MessageWireSize message).
func encodeDGCBatchPayload(entries []dgcBatchEntry) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen32+len(entries)*dgcSingleSize)
	buf = append(buf, dgcBatchTag)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = wire.AppendID(buf, e.Target)
		buf = append(buf, core.EncodeMessage(e.Msg)...)
	}
	return buf
}

func decodeDGCBatchPayload(buf []byte) ([]dgcBatchEntry, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(dgcBatchTag)
	entries := make([]dgcBatchEntry, r.Count(r.Len()/dgcSingleSize))
	for i := range entries {
		entries[i] = readDGCEntry(&r)
	}
	return entries, r.Done()
}

// encodeDGCBatchResponse packs the per-entry responses positionally: tag
// byte, uvarint count, then count × (1 B present flag + response when
// present). An absent response means the entry's target is gone — the
// batched equivalent of the empty single-exchange response.
func encodeDGCBatchResponse(resps []*core.Response) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen32+len(resps)*(1+core.ResponseWireSize))
	buf = append(buf, dgcBatchTag)
	buf = binary.AppendUvarint(buf, uint64(len(resps)))
	for _, r := range resps {
		if r == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = append(buf, core.EncodeResponse(*r)...)
	}
	return buf
}

func decodeDGCBatchResponse(buf []byte) ([]*core.Response, error) {
	var r wire.Reader
	r.Reset(buf, errBadEnvelope)
	r.Expect(dgcBatchTag)
	resps := make([]*core.Response, r.Count(r.Len()))
	for i := range resps {
		if r.Byte() == 0 {
			continue
		}
		if b := r.Next(core.ResponseWireSize); b != nil {
			resp, _ := core.DecodeResponse(b) // fails only on a short buffer
			resps[i] = &resp
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
