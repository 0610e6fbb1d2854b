package active

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/transport"
)

// runDriver is the node's driver goroutine: every TTB it runs one beat, a
// local heap sweep (which fires the weak-tag edge removals of §2.2), the
// collector broadcast of every hosted activity (Algorithm 2) and the
// node's other periodic upkeep. Broadcasts go out in parallel, as §4.2
// prescribes, so one slow peer cannot delay the rest of the beat.
func (n *Node) runDriver() {
	defer n.wg.Done()
	// With adaptive beats (§7.1) the driver wakes at the fastest permitted
	// period and beats each activity at its own adapted pace.
	wake := n.env.cfg.TTB
	if !n.env.cfg.DisableDGC && n.env.cfg.Adaptive.Enabled && n.env.cfg.Adaptive.MinTTB < wake {
		wake = n.env.cfg.Adaptive.MinTTB
	}
	for {
		select {
		case <-n.stop:
			return
		case <-time.After(wake):
		}
		n.beat()
	}
}

// dgcOut is the DGC messages of one exchange with the activities that
// owe them: aos[i] sent obs[i].
type dgcOut struct {
	aos []*ActiveObject
	obs []core.Outbound
}

// beat runs one driver iteration: a local sweep, the DGC broadcast (unless
// the DGC is off: the paper's "No DGC" baseline), then the upkeep that
// rides every beat — directory, relay records, checkpoints and the
// failure detector.
func (n *Node) beat() {
	n.heap.Collect()
	// Future entries are reclaimed right after the sweep refreshed the
	// future-tag liveness: resolved entries whose last heap pin died a
	// TTA-grace ago go; anything still owed an update stays.
	n.futures.sweep(n.heap, n.env.now(), n.env.cfg.TTA)
	if !n.env.cfg.DisableDGC {
		n.broadcastDue()
	}
	// Directory upkeep rides the beat: re-announce a rotating slice of
	// origin entries to the current shard owners.
	n.locationBeat()
	// Partially flush and expire tree fan-out relay records (WIRE.md §10).
	n.expireRelays()
	// Durable activities whose checkpoint is due get a reserved-method
	// request: the snapshot then happens on the activity's own goroutine,
	// between two services, without stalling the pool.
	n.checkpointBeat(n.env.now())
	if ag := n.env.cluster; ag != nil {
		// The beat doubles as the failure detector's clock: advance it at
		// most once per TTB across all local drivers. With the DGC off
		// there are no heartbeats to piggyback on, and silence drives the
		// suspect path's explicit probes.
		ag.maybeTick(n)
	}
}

// broadcastDue ticks every activity whose beat is due and sends its DGC
// messages. Without batching each message is its own parallel exchange
// (§4.2); with batching the beat's messages are grouped per destination
// node and each group travels as one exchange — the per-destination
// groups still go out in parallel, so one slow peer cannot delay the
// rest of the beat.
func (n *Node) broadcastDue() {
	var broadcasts sync.WaitGroup
	send := func(dst ids.NodeID, out dgcOut) {
		broadcasts.Add(1)
		go func() {
			defer broadcasts.Done()
			n.sendDGC(dst, out)
		}()
	}
	var byDst map[ids.NodeID]dgcOut
	batch := n.flusher != nil
	for _, ao := range append(n.snapshotActivities(), n.root) {
		// Each tick gets the time of the tick: with many activities the
		// loop itself takes a good part of a beat, and a referencer tested
		// against the loop's starting time would wait one period more.
		now := n.env.now()
		if ao.nextBeat.After(now) {
			continue
		}
		res := ao.collector.Tick(now)
		next := res.NextBeat
		if next <= 0 {
			next = n.env.cfg.TTB
		}
		// Schedule slightly early so driver-wake jitter cannot make the
		// deadline miss a whole wake period.
		ao.nextBeat = now.Add(next - next/8)
		if res.Terminated {
			n.destroy(ao, res.Reason)
			continue
		}
		for i, ob := range res.Messages {
			if n.env.isDeadNode(ob.To.Node) {
				// A declared-dead destination gets no beats: the referenced
				// side is gone and the send would only fail fast anyway.
				continue
			}
			if !batch {
				send(ob.To.Node, dgcOut{aos: []*ActiveObject{ao}, obs: res.Messages[i : i+1]})
				continue
			}
			if byDst == nil {
				byDst = make(map[ids.NodeID]dgcOut)
			}
			out := byDst[ob.To.Node]
			out.aos, out.obs = append(out.aos, ao), append(out.obs, ob)
			byDst[ob.To.Node] = out
		}
	}
	for dst, out := range byDst {
		send(dst, out)
	}
	broadcasts.Wait()
}

// sendDGC performs one DGC exchange with dst: the messages of out travel
// in one envelope, and each response goes back to the collector that
// sent its message. The responses ride back on the same connection
// (§2.2: no connectivity needed from referenced to referencer). A
// transport error, a malformed response or an absent one (target gone)
// is ignored: the TTA machinery owns all failure handling, and silence
// is a slow beat.
func (n *Node) sendDGC(dst ids.NodeID, out dgcOut) {
	respBytes, err := n.transportCall(dst, transport.ClassDGC, encodeDGC(out.obs))
	if ag := n.env.cluster; ag != nil && dst != n.id {
		// The heartbeat exchange doubles as the liveness probe: its
		// outcome feeds the failure detector for free.
		ag.noteExchange(dst, err)
	}
	if err != nil {
		return
	}
	resps, err := decodeDGCResponse(respBytes, out.obs)
	if err != nil {
		return
	}
	now := n.env.now()
	for i, r := range resps {
		if r != nil {
			out.aos[i].collector.HandleResponse(out.obs[i].To, *r, now)
		}
	}
}

// CollectNow runs one driver beat synchronously on this node (useful in
// tests to avoid waiting for the ticker). Like every beat it skips only
// the DGC broadcast when the DGC is off; the sweeps and the upkeep run.
func (n *Node) CollectNow() { n.beat() }
