package lock_test

// Regression coverage for the finished-marker leak: every execution
// that commits or aborts leaves a rule-3 marker, and before the engine
// retired a top-level attempt's tree nothing ever deleted one, so a
// long run grew the owner shards by one map entry per execution.

import (
	"context"
	"fmt"
	"testing"

	"objectbase/internal/cc"
	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/lock"
	"objectbase/internal/objects"
	"objectbase/internal/shard"
)

// managed is implemented by the lock-based schedulers.
type managed interface{ Manager() *lock.Manager }

func finishedMarkers(t *testing.T, engines []*engine.Engine) int {
	t.Helper()
	n := 0
	for _, en := range engines {
		m, ok := en.Scheduler().(managed)
		if !ok {
			t.Fatalf("scheduler %s has no lock manager", en.Scheduler().Name())
		}
		n += m.Manager().FinishedMarkers()
	}
	return n
}

// treeBody runs a nested transaction over two counters — a child on
// each of two Parallel lanes, each issuing a step — and then commits or
// (every other transaction) aborts at top level.
func treeBody(a, b string, i int) engine.MethodFunc {
	return func(ctx *engine.Ctx) (core.Value, error) {
		if err := ctx.Parallel(
			func(c *engine.Ctx) error { _, err := c.Call(a, "bump"); return err },
			func(c *engine.Ctx) error { _, err := c.Call(b, "bump"); return err },
		); err != nil {
			return nil, err
		}
		if i%2 == 1 {
			return nil, ctx.Abort("regression")
		}
		return nil, nil
	}
}

func bump(name string) engine.MethodFunc {
	return func(c *engine.Ctx) (core.Value, error) { return c.Do(name, "Add", int64(1)) }
}

// TestFinishedMarkersRetired drives sequential commits and aborts
// through each lock-based scheduler, unsharded and on a 4-shard space's
// scheduled (undeclared, cross-shard) path, and requires every finished
// marker to be gone once the run is quiescent.
func TestFinishedMarkersRetired(t *testing.T) {
	const txns = 200
	for _, sched := range []string{"n2pl-op", "n2pl-step", "gemstone"} {
		t.Run(sched+"/shards=1", func(t *testing.T) {
			s, err := cc.NewByName(sched, cc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			en := cc.NewEngine(s, engine.Options{})
			for _, name := range []string{"a", "b"} {
				en.AddObject(name, objects.Counter(), nil)
				en.Register(name, "bump", bump(name))
			}
			for i := 0; i < txns; i++ {
				_, _ = en.Run("T", treeBody("a", "b", i))
			}
			if n := finishedMarkers(t, []*engine.Engine{en}); n != 0 {
				t.Fatalf("%d finished markers left after %d sequential transactions, want 0", n, txns)
			}
		})
		t.Run(sched+"/shards=4", func(t *testing.T) {
			engines, err := cc.NewShardedEngines(sched, 4, cc.Config{}, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sp := shard.NewSpace(engines)
			names := make([]string, 8)
			for i := range names {
				names[i] = fmt.Sprintf("ctr%d", i)
				sp.AddObject(names[i], objects.Counter(), nil)
				sp.Register(names[i], "bump", bump(names[i]))
			}
			for i := 0; i < txns; i++ {
				a, b := names[i%len(names)], names[(i+3)%len(names)]
				_, _ = sp.Exec(context.Background(), "T", treeBody(a, b, i), nil)
			}
			if n := finishedMarkers(t, engines); n != 0 {
				t.Fatalf("%d finished markers left after %d sequential transactions, want 0", n, txns)
			}
		})
	}
}
