package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"objectbase"
)

func newRun(t *testing.T, name string, seed int64) *run {
	t.Helper()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		t.Fatalf("no workload %s", name)
	}
	return &run{w: workloads[i], seed: seed, budget: time.Second, clients: 2,
		res: result{Correct: true, Metrics: map[string]metric{}}}
}

// The same seed must give the same per-type op counts on bank-verify's
// count-bounded drive, whatever the interleaving; another seed must not.
func TestSameSeedSameOpCounts(t *testing.T) {
	counts := func(seed int64) [len(opTypes)]int64 {
		r := newRun(t, "bank-verify", seed)
		db, err := r.open(r.w.history, false)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := r.measure(db, r.streams(seed), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if dr.attempted != int64(r.w.driveTxns) {
			t.Fatalf("drove %d transactions, want %d", dr.attempted, r.w.driveTxns)
		}
		return dr.perType
	}
	a, b, c := counts(7), counts(7), counts(8)
	if a != b {
		t.Errorf("seed 7 gave %v, then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 both gave %v", a)
	}
}

// The output check must fail a run whose object base holds a wrong
// answer.
func TestCheckCatchesWrongBalance(t *testing.T) {
	r := newRun(t, "bank-locked", 1)
	db, err := r.open(r.w.history, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.measure(db, r.streams(1), 100*time.Millisecond, false); err != nil {
		t.Fatal(err)
	}
	if err := r.check(db, &drive{}); err != nil || !r.res.Correct {
		t.Fatalf("check of a correct run: err %v, correct %v", err, r.res.Correct)
	}
	if _, err := db.Exec(context.Background(), "mint", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("acct0", "deposit", int64(5))
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.check(db, &drive{}); err != nil || r.res.Correct {
		t.Fatalf("check after minting money: err %v, correct %v", err, r.res.Correct)
	}
}

// The catalog check must count inserts and deletes exactly as the
// dictionary reported them.
func TestCheckCatalogBookkeeping(t *testing.T) {
	r := newRun(t, "catalog-view", 1)
	db, err := r.open(r.w.history, false)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := r.measure(db, r.streams(1), 200*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if dr.added+dr.removed == 0 {
		t.Fatal("drive changed no keys; the check would prove nothing")
	}
	if err := r.check(db, dr); err != nil || !r.res.Correct {
		t.Fatalf("check of a correct run: err %v, correct %v", err, r.res.Correct)
	}
	dr.added++
	if err := r.check(db, dr); err != nil || r.res.Correct {
		t.Fatalf("check with one insert too many: err %v, correct %v", err, r.res.Correct)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	var l latencies
	for v := 1; v <= 10000; v++ {
		l.record(time.Duration(v) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.99, 9900}} {
		if got := l.quantile(c.q); math.Abs(got-c.want)/c.want > 0.003 {
			t.Errorf("quantile(%v) = %v us, want %v", c.q, got, c.want)
		}
	}
}

// --spans writes a traced transaction as a gen and a call span sharing
// its id, next to the spans around set-ups and oracle calls.
func TestWriteSpans(t *testing.T) {
	r := newRun(t, "bank-locked", 1)
	db, _, err := r.openTimed(false)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := r.measure(db, r.streams(1), 50*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	r.txns = dr.spans
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[uint64][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s struct {
			ID   uint64
			Name string
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		names[s.ID] = append(names[s.ID], s.Name)
	}
	if len(names) != 1+len(dr.spans) {
		t.Fatalf("%d span ids, want a set-up and %d transactions", len(names), len(dr.spans))
	}
	for id, ns := range names {
		if !slices.Equal(ns, []string{"gen", "call"}) && !slices.Equal(ns, []string{"setup"}) {
			t.Errorf("span id %d has spans %v", id, ns)
		}
	}
}
