// Command registry demonstrates DGC roots (§4.1) with a typed service: a
// registered service is never idle for the collector, so it survives with
// no referencers at all; the moment it is unregistered it becomes
// ordinary garbage. It also shows that a handle non-active code gets is a
// stub of its node's root referencer, not an activity of its own, and the
// released-handle sentinel of the hardened lifecycle.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

// counterService is a typed counter: "add" bumps by a delta and returns
// the new total, "read" returns it.
func counterService() *repro.Service {
	return repro.NewService(
		repro.Method("add", func(ctx *repro.Context, delta int64) (int64, error) {
			n := ctx.Load("n").AsInt() + delta
			ctx.Store("n", repro.Int(n))
			return n, nil
		}),
		repro.Method("read", func(ctx *repro.Context, _ struct{}) (int64, error) {
			return ctx.Load("n").AsInt(), nil
		}),
	)
}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Println(err)
		os.Exit(1)
	}
}

func run() error {
	env := repro.NewEnv(repro.Config{})
	defer env.Close()
	serverNode := env.NewNode()
	clientNode := env.NewNode()

	h := serverNode.NewActive("counter", counterService())
	if err := env.RegisterName("service/counter", h.Ref()); err != nil {
		return err
	}
	// The deployer walks away entirely; the registry root keeps the
	// service alive.
	h.Release()

	time.Sleep(10 * repro.DefaultTTA)
	fmt.Println("after many TTA periods with zero referencers, live activities:",
		env.LiveActivities(), "(registry pins it)")

	// A client discovers the service by name and types its methods.
	ref, err := env.Lookup("service/counter")
	if err != nil {
		return err
	}
	client, err := clientNode.HandleFor(ref)
	if err != nil {
		return err
	}
	fmt.Println("live activities with a client handle:", env.LiveActivities(),
		"(a handle is a stub of its node's root, not an activity)")
	add := repro.NewStub[int64, int64](client, "add")
	for i := int64(1); i <= 3; i++ {
		total, err := add.CallSync(i, 5*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("add(%d) → %d\n", i, total)
	}
	client.Release()

	// The hardened lifecycle: calling through the released handle fails
	// with a sentinel instead of resurrecting the reference.
	if _, err := add.CallSync(1, time.Second); errors.Is(err, repro.ErrHandleReleased) {
		fmt.Println("call after Release correctly refused:", err)
	} else {
		return fmt.Errorf("released handle answered a call (err=%v)", err)
	}

	fmt.Println("\nunregistering — the service loses its root status")
	env.Unregister("service/counter")
	took, err := env.WaitCollected(0, 30*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("service reclaimed %v after unregister: %v\n",
		took.Round(time.Millisecond), env.Stats().Collected)
	return nil
}
