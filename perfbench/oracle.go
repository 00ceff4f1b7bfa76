package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"objectbase"
	"objectbase/internal/core"
	"objectbase/internal/graph"
)

// oracleDB opens a full-history DB and drives the workload's oracle-phase
// transaction count through it, from op streams seeded with seed,
// leaving it quiescent for the oracle.
func (r *run) oracleDB(seed int64) (*objectbase.DB, *drive, error) {
	db, err := r.open(objectbase.HistoryFull, false)
	if err != nil {
		return nil, nil, err
	}
	dr, err := r.drive(db, r.streams(seed), time.Time{}, r.w.oracleTxns, false)
	if err != nil {
		return nil, nil, err
	}
	return db, dr, nil
}

// verifyOnce records the k-th oracle-phase history of the run and returns
// the wall time of DB.Verify on it. A failed verdict marks the result
// incorrect.
func (r *run) verifyOnce(k int) (time.Duration, error) {
	db, dr, err := r.oracleDB(r.seed*1000 + int64(k))
	if err != nil {
		return 0, err
	}
	runtime.GC() // start each history from the same collector state
	t0 := time.Now()
	_, err = db.Verify()
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: Verify: %v\n", r.w.name, err)
		r.res.Correct = false
	}
	return d, r.check(db, dr)
}

// traced is the run behind the per-layer metrics: an untraced drive for
// the reference throughput and allocation counts, a drive of a second DB
// with the flight recorder on, the oracle phase split into its public
// calls, and direct probes of the dictionary schema.
func (r *run) traced() error {
	db, _, err := r.openTimed(false)
	if err != nil {
		return err
	}
	st := r.streams(r.seed)
	book := &drive{}
	if r.w.warmTxns > 0 {
		warm, err := r.warm(db, st)
		if err != nil {
			return err
		}
		book.add(warm)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := r.measure(db, st, r.budget*2/10, false)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	book.add(plain)
	if err := r.check(db, book); err != nil {
		return err
	}
	n := float64(plain.attempted)
	r.set("runtime.alloc_bytes_per_txn", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/txn")
	r.set("runtime.gc_per_ktxn", float64(m1.NumGC-m0.NumGC)/n*1e3, "1/ktxn")
	r.set("objectbase.fail_ratio", float64(plain.failed)/n, "ratio")
	r.set("objectbase.read_p50_us", plain.read.quantile(0.50), "us")
	r.set("objectbase.read_p99_us", plain.read.quantile(0.99), "us")
	r.set("objectbase.write_p50_us", plain.write.quantile(0.50), "us")
	r.set("objectbase.write_p99_us", plain.write.quantile(0.99), "us")

	tdb, _, err := r.openTimed(true)
	if err != nil {
		return err
	}
	base := tdb.Stats()
	td, err := r.measure(tdb, r.streams(r.seed), r.budget*2/10, true)
	if err != nil {
		return err
	}
	stats := tdb.Stats().Sub(base)
	phases := tdb.Metrics().Phases
	recorded, _ := tdb.TraceSnapshot()
	if err := r.check(tdb, td); err != nil {
		return err
	}
	r.txns = td.spans
	var call, gen time.Duration
	for _, s := range td.spans {
		call += s.call
		gen += time.Duration(s.gen)
	}
	r.set("load.gen_ns_per_txn", float64(gen)/float64(len(td.spans)), "ns/txn")
	plainTPS := float64(plain.committed()) / plain.elapsed.Seconds()
	r.set("obs.trace_overhead", 1-float64(td.committed())/td.elapsed.Seconds()/plainTPS, "ratio")
	r.phaseMetrics(phases, recorded, call)
	perK := func(c int64) float64 { return float64(c) / float64(stats.Commits) * 1e3 }
	r.set("lock.waits_per_ktxn", perK(stats.LockWaits), "1/ktxn")
	r.set("lock.deadlocks_per_ktxn", perK(stats.Deadlocks), "1/ktxn")
	r.set("shard.serial_restarts_per_ktxn", perK(stats.SerialRestarts), "1/ktxn")
	r.set("shard.twopc_restarts_per_ktxn", perK(stats.TwoPCRestarts), "1/ktxn")
	r.set("engine.abort_ratio", ratio(stats.Aborts, stats.Commits+stats.Aborts), "ratio")
	r.set("engine.view_fallback_ratio", ratio(stats.ViewFallbacks, stats.ViewCommits+stats.ViewFallbacks), "ratio")

	if err := r.oracleSplit(); err != nil {
		return err
	}
	return r.dictProbes()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// phaseMetrics reports the flight recorder's phases. Medians and tails
// are exact over the spans still in the recorder's rings (the newest
// ~256k, where the registry's histograms would round to their buckets);
// shares divide the phase's summed time over the whole drive, from the
// registry, by the summed wall time of the drive's façade calls.
func (r *run) phaseMetrics(phases map[string]objectbase.HistStat, spans []objectbase.SpanRecord, call time.Duration) {
	durs := map[string][]float64{}
	for _, s := range spans {
		if !s.Instant {
			durs[s.Phase.String()] = append(durs[s.Phase.String()], us(s.Dur))
		}
	}
	for _, p := range []struct {
		layer, phase string
		p50, p99     bool
	}{
		{"lock.lock_wait", "lock-wait", true, true},
		{"cc.schedule_wait", "schedule-wait", true, false},
		{"engine.retry_backoff", "retry-backoff", false, false},
		{"shard.gate_wait", "gate-wait", true, true},
		{"engine.admit", "admit", true, false},
		{"engine.execute", "execute", true, false},
		{"engine.commit_barrier", "commit-barrier", true, false},
		{"engine.publish", "publish", true, true},
	} {
		d := durs[p.phase]
		slices.Sort(d)
		if p.p50 {
			r.set(p.layer+".p50_us", rank(d, 0.50), "us")
		}
		if p.p99 {
			r.set(p.layer+".p99_us", rank(d, 0.99), "us")
		}
		r.set(p.layer+".share", float64(phases["phase_"+p.phase].Sum)/float64(call), "ratio")
	}
}

// rank returns the q-quantile of sorted xs, a sample value (0 when xs is
// empty).
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[int(q*float64(len(xs)-1))]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// oracleSplit records minHistories oracle-phase histories, as the
// end-to-end run's first ones, and times each public call DB.Verify is
// made of on each, then the commutativity witness over every schema the
// workload registered. It reports the median of each.
func (r *run) oracleSplit() error {
	times := map[string][]float64{}
	var steps []float64
	for k := range minHistories {
		db, dr, err := r.oracleDB(r.seed*1000 + int64(k))
		if err != nil {
			return err
		}
		r.nextID++
		id := r.nextID
		var h *objectbase.History
		calls := []struct {
			metric, span string
			fn           func() error
		}{
			{"objectbase.history_ms", "DB.History", func() (err error) { h, err = db.History(); return err }},
			{"core.check_legal_ms", "History.CheckLegal", func() error { return h.CheckLegal() }},
			{"graph.check_ms", "graph.Check", func() error {
				if v := graph.Check(h); !v.Serialisable {
					return fmt.Errorf("not serialisable: %v", v)
				}
				return nil
			}},
			{"graph.theorem5_ms", "graph.CheckTheorem5", func() error { return graph.CheckTheorem5(h) }},
			{"core.commute_witness_ms", "SampleCommutativity", func() error {
				var errs []error
				for _, sc := range db.Schemas() {
					_, err := core.SampleCommutativity(sc, r.seed, 200)
					errs = append(errs, err)
				}
				return errors.Join(errs...)
			}},
		}
		runtime.GC() // as before each timed DB.Verify
		for _, c := range calls {
			d, err := r.timed(id, c.span, c.fn)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %v\n", r.w.name, c.span, err)
				r.res.Correct = false
				return nil
			}
			times[c.metric] = append(times[c.metric], ms(d))
		}
		steps = append(steps, float64(h.StepCount()))
		if err := r.check(db, dr); err != nil {
			return err
		}
	}
	for m, ts := range times {
		r.set(m, median(ts), "ms")
	}
	r.set("graph.history_steps", median(steps), "count")
	return nil
}

// dictProbes times the Dictionary schema's Clone (what every committing
// writer publishes under WithReadOnly) and its Len operation (what every
// catalog scan begins with) directly, single-threaded, on a dictionary
// preloaded as catalog-view preloads it.
func (r *run) dictProbes() error {
	const reps = 201
	sc := objectbase.Dictionary()
	st := sc.NewState()
	for key := int64(0); key < catalogKeys; key += 2 {
		if _, _, err := sc.MustOp("Insert").Apply(st, []objectbase.Value{key, key}); err != nil {
			return err
		}
	}
	lenOp := sc.MustOp("Len")
	clone := make([]float64, reps)
	size := make([]float64, reps)
	for i := range reps {
		t0 := time.Now()
		_ = sc.Clone(st)
		t1 := time.Now()
		n, _, err := lenOp.Apply(st, nil)
		size[i] = us(time.Since(t1))
		clone[i] = us(t1.Sub(t0))
		if err != nil || n != int64(catalogKeys/2) {
			return fmt.Errorf("dictionary probe: Len = %v, %v; want %d", n, err, catalogKeys/2)
		}
	}
	r.set("objects.dict_clone_us", median(clone), "us")
	r.set("objects.dict_len_us", median(size), "us")
	return nil
}

// writeSpans writes every span the run kept, as JSON lines with offsets
// from process start. A traced transaction contributes a "gen" span
// (Ops(i)) and a "call" span (the façade call), sharing its id.
func (r *run) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID      uint64 `json:"id"`
		Name    string `json:"name"`
		Type    string `json:"type,omitempty"`
		StartNS int64  `json:"start_ns"`
		DurNS   int64  `json:"dur_ns"`
	}
	for _, s := range r.spans {
		if err := enc.Encode(rec{s.id, s.name, "", int64(s.start), int64(s.dur)}); err != nil {
			return err
		}
	}
	for _, s := range r.txns {
		typ := opTypes[s.typ]
		if err := enc.Encode(rec{s.id, "gen", typ, int64(s.start), int64(s.gen)}); err != nil {
			return err
		}
		if err := enc.Encode(rec{s.id, "call", typ, int64(s.start) + int64(s.gen), int64(s.call)}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
