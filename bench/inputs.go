package main

import "math/rand"

const (
	// loadWorkers is the number of load goroutines of every workload.
	loadWorkers = 2
	// workerNodes host the activities; one more node hosts the callers.
	workerNodes = 4
	// numActors is the standing echo population of the call workloads.
	numActors = 16
	// inputCycle is how many pre-generated choices a worker cycles over.
	inputCycle = 1 << 14
)

// inputs is everything the seed decides: which actor each call targets,
// the payload bytes, and where rings and migrating counters are placed.
// The program under test receives only these values, never the seed.
type inputs struct {
	payload []byte
	// targets[w][i % inputCycle] is the actor index of worker w's i-th call.
	targets [loadWorkers][]uint8
	// places[i % inputCycle] is a placement offset in [0, 256): the first
	// node of the i-th ring, or the source and hop of the i-th migration.
	places []uint8
}

// genInputs derives a workload's inputs from the seed, deterministically.
func genInputs(seed int64, payloadBytes int) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{payload: make([]byte, payloadBytes), places: make([]uint8, inputCycle)}
	for i := range in.payload {
		in.payload[i] = byte(rng.Intn(256))
	}
	for w := range in.targets {
		in.targets[w] = make([]uint8, inputCycle)
		for i := range in.targets[w] {
			in.targets[w][i] = uint8(rng.Intn(numActors))
		}
	}
	for i := range in.places {
		in.places[i] = uint8(rng.Intn(256))
	}
	return in
}

// echoOf is the answer an echo servant must give for payload: its length
// and its two end bytes, cheap enough not to weigh on the method stage.
func echoOf(payload []byte) int64 {
	if len(payload) == 0 {
		return 0
	}
	return int64(len(payload))<<16 | int64(payload[0])<<8 | int64(payload[len(payload)-1])
}

// migration returns the source node and the different destination node
// of the i-th migrate-churn lifecycle.
func (in inputs) migration(i int) (src, dst int) {
	src = int(in.places[(2*i)%inputCycle]) % workerNodes
	hop := 1 + int(in.places[(2*i+1)%inputCycle])%(workerNodes-1)
	return src, (src + hop) % workerNodes
}
