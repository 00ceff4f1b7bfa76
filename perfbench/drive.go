package main

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"objectbase"
	"objectbase/internal/engine"
	"objectbase/internal/load"
)

// stream is one client's op stream. It outlives a single drive so a
// warm-up and the measured drive that follows continue the same
// deterministic sequence instead of replaying its prefix.
type stream struct {
	ops  load.OpFunc
	next int
}

// newStreams seeds one stream per client exactly as internal/load's
// driver does, so a (scenario, knobs, seed) triple names the same op
// sequences here and under obsim load.
func newStreams(sc *load.Scenario, k load.Knobs, clients int, seed int64) []*stream {
	out := make([]*stream, clients)
	for c := range out {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		out[c] = &stream{ops: sc.Ops(k, c, r)}
	}
	return out
}

// txnSpans is the compact record of one traced transaction's two
// benchmark-side spans, both carrying id (1<<63 | client<<32 | stream
// index, apart from the ids of set-up and oracle spans): the
// generation of its op, Ops(i), from start for gen; and the façade call
// that ran it (Exec, ExecTouching or View), from start+gen for call.
// Drives keep one per transaction in memory until the run ends.
type txnSpans struct {
	id    uint64
	start time.Duration // from epoch
	call  time.Duration
	gen   int32 // nanoseconds
	typ   uint8 // index into opTypes
}

// opTypes names the transaction types of the scenarios the workloads
// use; read-only ones are balance and scan.
var opTypes = [...]string{"balance", "transfer", "scan", "insert", "delete"}

func opType(name string) uint8 {
	for i, t := range opTypes {
		if t == name {
			return uint8(i)
		}
	}
	panic("perfbench: unknown transaction type " + name)
}

// drive is the outcome of one closed-loop drive.
type drive struct {
	elapsed     time.Duration
	read, write latencies
	attempted   int64
	failed      int64 // retries exhausted: a measured outcome, not a harness failure
	perType     [len(opTypes)]int64
	// Dictionary bookkeeping for the catalog check: inserts that added a
	// key (returned nil) and deletes that removed one (returned a value).
	added, removed int64
	spans          []txnSpans // traced drives only
}

// committed counts the transactions that returned without error.
func (d *drive) committed() int64 { return d.attempted - d.failed }

// add folds another drive's dictionary bookkeeping into d.
func (d *drive) add(o *drive) {
	d.added += o.added
	d.removed += o.removed
}

// runDrive drives db with one goroutine per stream, each issuing its next
// transaction only after the previous one returned (closed loop). It
// stops at until when that is set, otherwise after count transactions
// per client. Read-only ops go through View when view is set, ops
// declaring their objects through ExecTouching, the rest through Exec —
// the routing of internal/load's driver. A non-retriable error stops
// every client and fails the drive.
func runDrive(db *objectbase.DB, streams []*stream, view bool, until time.Time, count int, trace bool) (*drive, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parts := make([]*drive, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c, st := range streams {
		parts[c] = &drive{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = parts[c].client(ctx, db, st, uint64(c), view, until, count, trace)
			if errs[c] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	d := &drive{elapsed: time.Since(start)}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, p := range parts {
		d.read.merge(&p.read)
		d.write.merge(&p.write)
		d.attempted += p.attempted
		d.failed += p.failed
		d.added += p.added
		d.removed += p.removed
		for t, n := range p.perType {
			d.perType[t] += n
		}
		d.spans = append(d.spans, p.spans...)
	}
	return d, nil
}

func (d *drive) client(ctx context.Context, db *objectbase.DB, st *stream, c uint64, view bool, until time.Time, count int, trace bool) error {
	for n := 0; !until.IsZero() || n < count; n++ {
		if ctx.Err() != nil {
			return nil // a sibling failed; its error is reported
		}
		i := st.next
		st.next++
		g0 := time.Now()
		if !until.IsZero() && g0.After(until) {
			return nil
		}
		op := st.ops(i)
		t0 := time.Now()
		var v objectbase.Value
		var err error
		switch {
		case view && op.ReadOnly:
			v, err = db.View(ctx, op.Name, op.Fn)
		case len(op.Objects) > 0:
			v, err = db.ExecTouching(ctx, op.Name, op.Objects, op.Fn)
		default:
			v, err = db.Exec(ctx, op.Name, op.Fn)
		}
		lat := time.Since(t0)
		typ := opType(op.Name)
		if trace {
			d.spans = append(d.spans, txnSpans{id: 1<<63 | c<<32 | uint64(i), start: g0.Sub(epoch),
				call: lat, gen: int32(t0.Sub(g0)), typ: typ})
		}
		d.attempted++
		d.perType[typ]++
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if !engine.Retriable(err) {
				return fmt.Errorf("client %d txn %d (%s): %w", c, i, op.Name, err)
			}
			d.failed++
			continue
		}
		if op.ReadOnly {
			d.read.record(lat)
		} else {
			d.write.record(lat)
		}
		switch {
		case op.Name == "insert" && v == nil:
			d.added++
		case op.Name == "delete" && v != nil:
			d.removed++
		}
	}
	return nil
}

// latencies is a log-linear histogram: each power of two splits into
// 2^subBits linear buckets, so a recorded value is known to within 0.2%,
// and quantiles interpolate inside the bucket so they move continuously
// with the sample.
type latencies struct {
	counts [64 << subBits]uint64
	n      uint64
	sum    time.Duration
}

const subBits = 9

func bucketOf(v uint64) int {
	if v < 2<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return shift<<subBits + int(v>>shift)
}

// bucketRange returns a bucket's lowest value and width.
func bucketRange(b int) (lo, width float64) {
	if b < 2<<subBits {
		return float64(b), 1
	}
	shift := b>>subBits - 1
	m := b - shift<<subBits
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (l *latencies) record(d time.Duration) {
	l.counts[bucketOf(uint64(max(d, 0)))]++
	l.n++
	l.sum += d
}

func (l *latencies) merge(o *latencies) {
	for i, c := range o.counts {
		l.counts[i] += c
	}
	l.n += o.n
	l.sum += o.sum
}

// mean returns the mean in microseconds (0 when empty).
func (l *latencies) mean() float64 {
	if l.n == 0 {
		return 0
	}
	return us(l.sum) / float64(l.n)
}

// quantile returns the q-quantile in microseconds (0 when empty).
func (l *latencies) quantile(q float64) float64 {
	if l.n == 0 {
		return 0
	}
	target := q * float64(l.n)
	var cum float64
	for b, c := range l.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(b)
			return (lo + w*(target-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(l.counts) - 1)
	return (lo + w) / 1e3
}
