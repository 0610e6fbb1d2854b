// Command durability walks both durable-activity shapes (DESIGN.md §9,
// WIRE.md §11) on the public API:
//
//  1. Kill-and-restart: a process checkpoints a named activity to a
//     file-backed store, "crashes" (some work never checkpointed), and a
//     restarted process replays the log, recovers the activity under its
//     old identity and re-registers its name. The uncheckpointed tail is
//     gone — at-most-once, callers retry idempotent operations.
//  2. Kill-and-failover: two cluster members share a checkpoint store;
//     when one is hard-killed, the failure detector declares it dead and
//     the surviving member adopts its checkpointed activity under a new
//     identity, announcing the relocation to every member — the dead
//     process's name and even a stale reference to the dead identity
//     keep resolving.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

// account is the durable behavior: like a migratable one, all its state
// lives in Context.Store entries, so the checkpoint envelope captures
// the whole activity.
type account struct{}

func (account) Serve(ctx *repro.Context, method string, args repro.Value) (repro.Value, error) {
	switch method {
	case "add":
		total := ctx.Load("total").AsInt() + args.AsInt()
		ctx.Store("total", repro.Int(total))
		return repro.Int(total), nil
	case "total":
		return ctx.Load("total"), nil
	}
	return repro.Null(), fmt.Errorf("account: unknown method %q", method)
}

func init() {
	// Durability rides on the behavior-kind registry exactly like
	// migration: recovery re-instantiates the kind from this registry,
	// in whichever process performs it.
	repro.RegisterBehavior("example/account", func() repro.Behavior { return account{} })
}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Println(err)
		os.Exit(1)
	}
}

func run() error {
	if err := restartDemo(); err != nil {
		return fmt.Errorf("kill-and-restart: %w", err)
	}
	if err := failoverDemo(); err != nil {
		return fmt.Errorf("kill-and-failover: %w", err)
	}
	return nil
}

// restartDemo is shape 1: one process dies, its successor re-opens the
// store and resumes the checkpointed world.
func restartDemo() error {
	fmt.Println("— kill-and-restart —")
	dir, err := os.MkdirTemp("", "durability-ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// First process lifetime. The store is crash-tolerant: every
	// acknowledged checkpoint is fsynced behind a CRC-framed record.
	st, err := repro.NewFileStore(dir)
	if err != nil {
		return err
	}
	env := repro.NewEnv(repro.Config{Store: st})
	node := env.NewNode()
	h, err := node.SpawnKind("acct", "example/account")
	if err != nil {
		return err
	}
	if err := env.RegisterName("bank/acct", h.Ref()); err != nil {
		return err
	}
	if _, err := h.CallSync("add", repro.Int(42), 10*time.Second); err != nil {
		return err
	}
	fut, err := h.Checkpoint() // explicit; Config.CheckpointEvery gives a cadence
	if err != nil {
		return err
	}
	if _, err := fut.Wait(10 * time.Second); err != nil {
		return err
	}
	fmt.Println("checkpointed at total=42; adding 58 more without a checkpoint...")
	if _, err := h.CallSync("add", repro.Int(58), 10*time.Second); err != nil {
		return err
	}
	// Crash. No graceful teardown of the activity — a graceful destroy
	// (unregister + release + collection) would retire the checkpoint.
	env.Close()
	st.Close()
	fmt.Println("process crashed at total=100 (58 units never acknowledged)")

	// Second process lifetime: replay the log, recover, look the name up.
	st2, err := repro.NewFileStore(dir)
	if err != nil {
		return err
	}
	defer st2.Close()
	env2 := repro.NewEnv(repro.Config{Store: st2})
	defer env2.Close()
	restored, err := env2.Recover()
	if err != nil {
		return err
	}
	ref, err := env2.Lookup("bank/acct")
	if err != nil {
		return err
	}
	client := env2.NewNode()
	caller, err := client.HandleFor(ref)
	if err != nil {
		return err
	}
	defer caller.Release()
	total, err := caller.CallSync("total", repro.Null(), 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("restart recovered %d activity under its old identity: total = %d\n",
		restored, total.AsInt())
	fmt.Println("the uncheckpointed 58 died with the process — at-most-once;")
	fmt.Println("requests checkpointed in flight would have failed with ErrRecovered")
	return nil
}

// failoverDemo is shape 2: two cluster members (two envs standing in for
// two processes), a shared checkpoint store, and a hard kill healed by
// the survivor instead of a restart.
func failoverDemo() error {
	fmt.Println("— kill-and-failover —")
	// A MemStore stands in for storage both members can reach (a shared
	// or replicated file store works the same way).
	st := repro.NewMemStore()
	newMember := func(seed string) (*repro.Env, error) {
		tr, err := repro.NewTCPTransport(repro.TCPConfig{})
		if err != nil {
			return nil, err
		}
		return repro.NewEnv(repro.Config{
			// The paper's parameters compressed so death is declared in
			// tens of milliseconds instead of minutes.
			TTB: 10 * time.Millisecond, TTA: 40 * time.Millisecond,
			Transport: tr, Store: st,
			Cluster: repro.ClusterConfig{Enabled: true, Seed: seed, Failover: true},
		}), nil
	}

	seedEnv, err := newMember("")
	if err != nil {
		return err
	}
	defer seedEnv.Close()
	seedAddr := seedEnv.Network().(*repro.TCPTransport).Addr()
	survivor := seedEnv.NewNode()

	joinEnv, err := newMember(seedAddr)
	if err != nil {
		return err
	}
	defer joinEnv.Close()
	if err := joinEnv.Join(); err != nil {
		return err
	}
	doomed := joinEnv.NewNode()

	h, err := doomed.SpawnKind("acct", "example/account")
	if err != nil {
		return err
	}
	if err := joinEnv.RegisterName("bank/acct", h.Ref()); err != nil {
		return err
	}
	// A client on the seed member holds a reference to the doomed
	// identity and checkpoints it across the wire.
	caller, err := survivor.HandleFor(h.Ref())
	if err != nil {
		return err
	}
	defer caller.Release()
	if _, err := callRetry(caller, "add", repro.Int(7), 10*time.Second); err != nil {
		return err
	}
	fut, err := caller.Checkpoint()
	if err != nil {
		return err
	}
	if _, err := fut.Wait(10 * time.Second); err != nil {
		return err
	}

	fmt.Printf("hard-killing the member hosting %v (total=7 checkpointed)...\n", doomed.ID())
	joinEnv.Network().Close()
	start := time.Now()
	for seedEnv.NodeHealth(doomed.ID()) != repro.NodeDead {
		if time.Since(start) > 10*time.Second {
			return errors.New("failure detector never declared the member dead")
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("failure detector declared it dead after %v; survivor adopts...\n",
		time.Since(start).Round(time.Millisecond))

	// The name was registered only in the dead process — the survivor
	// learns it from the checkpoint and re-binds it to the adoptee.
	start = time.Now()
	for {
		if ref, err := seedEnv.Lookup("bank/acct"); err == nil {
			if id, ok := ref.AsRef(); ok && id.Node == survivor.ID() {
				fmt.Printf("name re-bound to adopted identity %v on the survivor\n", id)
				break
			}
		}
		if time.Since(start) > 10*time.Second {
			return errors.New("adoption never re-bound the name")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The client still holds the DEAD identity; the announced
	// relocation routes it, exactly as after a live migration.
	total, err := callRetry(caller, "total", repro.Null(), 10*time.Second)
	if err != nil {
		return err
	}
	after, err := callRetry(caller, "add", repro.Int(3), 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("stale reference still works: total was %d, %d after one more add\n",
		total.AsInt(), after.AsInt())
	return nil
}

// callRetry retries a call with a short per-attempt timeout. Around a
// kill, a one-way request can land in a connection that has not yet
// observed the peer's death and be lost with it; retrying is the
// documented contract (idempotent here: "total", and "add" only after
// its outcome is checked).
func callRetry(h *repro.Handle, method string, args repro.Value, budget time.Duration) (repro.Value, error) {
	deadline := time.Now().Add(budget)
	for {
		v, err := h.CallSync(method, args, time.Second)
		if err == nil {
			return v, nil
		}
		if time.Now().After(deadline) {
			return repro.Null(), fmt.Errorf("%s: %w", method, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
