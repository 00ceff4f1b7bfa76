// Command perfbench is the repository's benchmark. It drives the public
// objectbase façade from one process with closed-loop clients, one per
// CPU, over op streams taken from the internal/load scenario registry,
// checks the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload bank-locked --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run; with --trace 1 it holds the per-layer metrics of a run that
// drives once untraced and once with the flight recorder on. README.md
// in this directory describes the workloads and what each metric should
// move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"objectbase"
	"objectbase/internal/load"
)

// workload is one benchmarked configuration. Every workload runs the
// n2pl-op scheduler.
type workload struct {
	name     string
	scenario string
	knobs    load.Knobs // Keys, Theta, ReadFraction, UseView, Shards
	// history is the drive's recording mode.
	history objectbase.HistoryMode
	// warmTxns, when positive, bounds a warm-up drive across all clients;
	// the live heap is measured after it, so it reflects a fixed amount of
	// work.
	warmTxns int
	// driveTxns, when positive, bounds each window of the measured drive
	// across all clients, each window runs on a fresh DB, and the live
	// heap is measured after the first; otherwise windows are bounded by
	// time and share one DB.
	driveTxns int
	// oracleTxns sizes the history the oracle phase verifies, across all
	// clients.
	oracleTxns int
}

var bankKnobs = load.Knobs{Keys: 16, Theta: 0.99, ReadFraction: 0.25}

var workloads = []workload{
	{name: "bank-locked", scenario: "bank", knobs: bankKnobs,
		history: objectbase.HistoryOff, warmTxns: 200_000, oracleTxns: 200},
	{name: "bank-sharded", scenario: "bank", knobs: withShards(bankKnobs, 4),
		history: objectbase.HistoryOff, warmTxns: 600_000, oracleTxns: 200},
	{name: "catalog-view", scenario: "scan-read-mostly",
		knobs:   load.Knobs{Keys: catalogKeys, ReadFraction: 0.95, UseView: true},
		history: objectbase.HistoryOff, warmTxns: 50_000, oracleTxns: 60},
	{name: "bank-verify", scenario: "bank", knobs: bankKnobs,
		history: objectbase.HistoryFull, driveTxns: 20_000, oracleTxns: 500},
}

func withShards(k load.Knobs, n int) load.Knobs { k.Shards = n; return k }

// catalogKeys sizes the dictionary probes: catalog-view's key space.
const catalogKeys = 4096

// epoch anchors every span's start offset.
var epoch = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: bank-locked, bank-sharded, catalog-view or bank-verify")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "seconds the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	spansOut := flag.String("spans", "", "with --trace 1, write the benchmark-side spans to this file as JSON lines")
	flag.Parse()

	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{w: workloads[i], seed: *seed, budget: time.Duration(*seconds) * time.Second,
		clients: runtime.NumCPU(), res: result{Correct: true, Metrics: map[string]metric{}}}
	var err error
	if *trace == 1 {
		err = r.traced()
		if err == nil && *spansOut != "" {
			err = r.writeSpans(*spansOut)
		}
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
}

// run is one invocation: a workload, its seed and time budget, and the
// result being filled in.
type run struct {
	w       workload
	seed    int64
	budget  time.Duration
	clients int
	res     result
	spans   []span     // setup and oracle spans
	txns    []txnSpans // traced drive
	nextID  uint64
}

// span is a benchmark-side span around one façade or oracle call.
type span struct {
	id         uint64
	name       string
	start, dur time.Duration
}

// timed runs fn, records it as a span named name under id, and returns
// its wall time.
func (r *run) timed(id uint64, name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.spans = append(r.spans, span{id: id, name: name, start: t0.Sub(epoch), dur: d})
	return d, err
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) scenario() *load.Scenario {
	sc, ok := load.Get(r.w.scenario)
	if !ok {
		panic("perfbench: unregistered scenario " + r.w.scenario)
	}
	return sc
}

// open opens a DB for the workload under the given recording mode and
// sets its scenario up: the work setup_s measures.
func (r *run) open(mode objectbase.HistoryMode, tracing bool) (*objectbase.DB, error) {
	k := r.w.knobs
	opts := []objectbase.Option{objectbase.WithScheduler("n2pl-op"), objectbase.WithHistory(mode)}
	if k.UseView {
		opts = append(opts, objectbase.WithReadOnly())
	}
	if k.Shards > 1 {
		opts = append(opts, objectbase.WithShards(k.Shards))
	}
	if tracing {
		opts = append(opts, objectbase.WithTracing())
	}
	db, err := objectbase.Open(opts...)
	if err != nil {
		return nil, err
	}
	if err := r.scenario().Setup(db, k); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return db, nil
}

// openTimed opens and sets up a DB as open does, recording a "setup"
// span.
func (r *run) openTimed(tracing bool) (*objectbase.DB, time.Duration, error) {
	var db *objectbase.DB
	r.nextID++
	d, err := r.timed(r.nextID, "setup", func() (err error) {
		db, err = r.open(r.w.history, tracing)
		return err
	})
	return db, d, err
}

// setupBurst opens and sets up fresh DBs for about d, at least three,
// appends each set-up time to times, and returns the last DB. Runs spread
// their bursts over the measured drive, so the median set-up time samples
// the machine when the other metrics do.
func (r *run) setupBurst(d time.Duration, times *[]float64) (*objectbase.DB, error) {
	var db *objectbase.DB
	for n, spent := 0, time.Duration(0); n < 3 || spent < d; n++ {
		var t time.Duration
		var err error
		if db, t, err = r.openTimed(false); err != nil {
			return nil, err
		}
		spent += t
		*times = append(*times, t.Seconds())
	}
	return db, nil
}

func (r *run) streams(seed int64) []*stream {
	k := r.w.knobs
	k.Seed = seed
	return newStreams(r.scenario(), k, r.clients, seed)
}

// measure runs one measured drive: d long on a workload bounded by time,
// driveTxns transactions long on one bounded by count.
func (r *run) measure(db *objectbase.DB, st []*stream, d time.Duration, trace bool) (*drive, error) {
	if r.w.driveTxns > 0 {
		return r.drive(db, st, time.Time{}, r.w.driveTxns, trace)
	}
	return r.drive(db, st, time.Now().Add(d), 0, trace)
}

// warm runs the count-bounded warm-up of a workload bounded by time.
func (r *run) warm(db *objectbase.DB, st []*stream) (*drive, error) {
	return r.drive(db, st, time.Time{}, r.w.warmTxns, false)
}

// drive runs one drive, bounded by until when it is set and otherwise by
// txns transactions across all clients (at least one each), and folds
// its outcome into attempted/failed.
func (r *run) drive(db *objectbase.DB, st []*stream, until time.Time, txns int, trace bool) (*drive, error) {
	count := 0
	if until.IsZero() {
		count = max(1, txns/len(st))
	}
	dr, err := runDrive(db, st, r.w.knobs.UseView, until, count, trace)
	if err != nil {
		return nil, err
	}
	r.res.Attempted += dr.attempted
	r.res.Failed += dr.failed
	return dr, nil
}

// windows splits the measured drive of an end-to-end run; each metric is
// the median over the windows, so a stall that hits one window does not
// move it.
const windows = 20

// setupBudget is the time an end-to-end run spends on set-ups, spread
// over a burst before the warm-up and one before each window.
const setupBudget = time.Second / 2

// minHistories and maxHistories bound the histories an end-to-end run
// verifies.
const minHistories, maxHistories = 5, 25

// endToEnd is the untraced run behind the end-to-end metrics.
func (r *run) endToEnd() error {
	var setups []float64
	burst := setupBudget / (windows + 1)
	db, err := r.setupBurst(burst, &setups)
	if err != nil {
		return err
	}
	st := r.streams(r.seed)
	book := &drive{}
	var heap float64
	if r.w.warmTxns > 0 {
		warm, err := r.warm(db, st)
		if err != nil {
			return err
		}
		book.add(warm)
		heap = liveHeap(db)
	}
	var tps, rm, wm []float64
	for i := range windows {
		fresh, err := r.setupBurst(burst, &setups)
		if err != nil {
			return err
		}
		if r.w.driveTxns > 0 {
			// A count-bounded window records its own history from empty,
			// so every window does the same recording work.
			db, book = fresh, &drive{}
		}
		dr, err := r.measure(db, st, r.budget*7/10/windows, false)
		if err != nil {
			return err
		}
		book.add(dr)
		tps = append(tps, float64(dr.committed())/dr.elapsed.Seconds())
		rm = append(rm, dr.read.mean())
		wm = append(wm, dr.write.mean())
		if r.w.driveTxns > 0 {
			if err := r.check(db, book); err != nil {
				return err
			}
			if i == 0 {
				heap = liveHeap(db)
			}
		}
	}
	if r.w.driveTxns == 0 {
		if err := r.check(db, book); err != nil {
			return err
		}
	}

	// The oracle phase records and verifies histories until three tenths
	// of the budget have gone, at least minHistories and at most
	// maxHistories.
	var verifies []float64
	for spent := time.Duration(0); len(verifies) < minHistories || len(verifies) < maxHistories && spent < r.budget*3/10; {
		d, err := r.verifyOnce(len(verifies))
		if err != nil {
			return err
		}
		spent += d
		verifies = append(verifies, d.Seconds())
	}
	r.set("txn_per_s", median(tps), "1/s")
	r.set("read_mean_us", median(rm), "us")
	r.set("write_mean_us", median(wm), "us")
	r.set("verify_s", median(verifies), "s")
	r.set("setup_s", median(setups), "s")
	r.set("live_heap_mb", heap/(1<<20), "MiB")
	return nil
}

// check verifies the workload's output invariant on a quiescent DB that
// has run the drives booked in book, and marks the result incorrect when
// it fails.
func (r *run) check(db *objectbase.DB, book *drive) error {
	want, what := int64(0), ""
	var audit objectbase.MethodFunc
	switch r.w.scenario {
	case "bank":
		want, what = int64(r.w.knobs.Keys)*1000, "sum of balances"
		audit = func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			sum := int64(0)
			for i := range r.w.knobs.Keys {
				v, err := ctx.Call(fmt.Sprintf("acct%d", i), "balance")
				if err != nil {
					return nil, err
				}
				sum += v.(int64)
			}
			return sum, nil
		}
	case "scan-read-mostly":
		// The scenario preloads the even keys.
		want = int64((r.w.knobs.Keys+1)/2) + book.added - book.removed
		what = "dictionary Len"
		audit = func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Call("dict", "len") }
	default:
		return fmt.Errorf("no output check for scenario %s", r.w.scenario)
	}
	got, err := db.Exec(context.Background(), "audit", audit)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if got != want {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s is %v, want %d\n", r.w.name, what, got, want)
		r.res.Correct = false
	}
	return nil
}

// liveHeap returns the bytes of live heap, db's included, after a forced
// collection.
func liveHeap(db *objectbase.DB) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(db)
	return float64(ms.HeapAlloc)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
