// Package lock implements the lock manager behind nested two-phase locking
// (N2PL, Section 5.1 of the paper — Moss's algorithm generalised to
// arbitrary operations).
//
// Locks name operations or steps, at the caller's choice of granularity:
//
//   - OpGranularity locks operations before execution (the paper's first
//     resolution of the lock/return-value circularity): L(a) is
//     incompatible with a held L(a') iff a' conflicts with a;
//   - StepGranularity locks completed steps after a provisional execution
//     (the second resolution, after Weihl): L(t) is incompatible with a
//     held L(t') iff t' conflicts with t — return values participate, so
//     e.g. an Enqueue blocks only the Dequeue that would return its item.
//
// Note the direction: rule 2 reads "e can acquire a lock L only if every
// method execution which owns a lock that conflicts with L is an ancestor
// of e" — the held lock's step conflicting with the requested one. The
// relation need not be symmetric (Definition 3); granting a request whose
// step conflicts with a held step only in the *reverse* order is sound
// because a Definition 9 edge requires the conflict in execution order.
//
// The manager enforces the five rules of Section 5.1:
//
//  1. a step is issued only while its lock is owned — the engine acquires
//     before every local step;
//  2. grant only if every owner of a conflicting lock is an ancestor of
//     the requester;
//  3. no acquisition after release (two-phase) — releases happen only at
//     commit/abort (strict), and acquisitions by finished executions are
//     rejected;
//  4. an execution releases only after its children released theirs — the
//     engine commits bottom-up;
//  5. on commit, released locks are immediately acquired by the parent
//     (lock inheritance); a top-level commit or any abort discards them.
//
// Deadlocks are detected on a waits-for structure interpreted with nested
// semantics: a waiter needs the commits of the owner and of the owner's
// proper ancestors below their least common ancestor (rule 5 moves locks
// upward one level per commit), and an execution's commit needs its whole
// subtree to finish. A request that closes a cycle fails with ErrDeadlock.
//
// # Striping
//
// The lock table is striped: shard names (conflict scopes) hash onto a
// fixed array of stripes, each with its own mutex and shard map, so
// requests against different scopes proceed without serialising on one
// manager-wide lock. Per-execution bookkeeping — the finished set
// (rule 3) and the owner→shards index that commit/abort consult — is
// striped the same way, hashed by top-level transaction number, so a
// whole execution tree lives in one owner shard and Retire can drop its
// finished markers in one visit. Only the waits-for
// graph cannot be striped: deadlock detection needs a consistent global
// view, so it lives behind one small dedicated registry lock that is
// touched exclusively on the blocking paths (register a wait, detect a
// cycle, cancel); a per-owner "waited" flag lets grants and finishes
// skip it entirely when the execution never blocked. Lock order is
// stripe → owner shard → waits registry (tiers 20/30/40 of the
// repo-wide rank table — see "Lock and gate order" in the README), and
// never two locks of the same tier at once; the lockorder analyzer in
// internal/analysis checks this statically, and building with
// -tags ordercheck (ordercheck.go) compiles in a runtime witness that
// panics at the call site of any out-of-order acquisition. Grants
// remove the requester's waits-for entry before the lock lands in the
// shard, so a concurrent detector never sees a granted request as
// still waiting.
package lock

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"objectbase/internal/core"
	"objectbase/internal/obs"
)

// ErrDeadlock is returned when granting the request could never happen
// because the requester transitively waits for its own subtree, or when the
// wait budget expires.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrFinished is returned when a finished execution requests a lock
// (rule 3 violation by the caller).
var ErrFinished = errors.New("lock: acquisition after release (rule 3)")

// ErrCancelled is returned when a wait is abandoned because the caller's
// done channel fired (context cancellation) — the request was neither
// granted nor deadlocked.
var ErrCancelled = errors.New("lock: wait cancelled")

// Granularity selects which conflict test guards lock compatibility.
type Granularity int

const (
	// OpGranularity: conservative, locks operations (return values
	// unknown).
	OpGranularity Granularity = iota
	// StepGranularity: exact, locks steps (return values known; requests
	// carry the provisionally computed return value).
	StepGranularity
)

func (g Granularity) String() string {
	if g == StepGranularity {
		return "step"
	}
	return "op"
}

// Sharder is implemented by conflict relations that can scope invocations:
// invocations with different shard keys never conflict, so the manager may
// keep them in separate tables. core.TableConflict implements it.
type Sharder = core.Sharder

// Stats carries the manager's counters for the experiment harness.
type Stats struct {
	Acquires  atomic.Int64 // granted requests
	Waits     atomic.Int64 // requests that blocked at least once
	Deadlocks atomic.Int64 // requests denied by deadlock detection/timeout
	Inherits  atomic.Int64 // locks transferred to a parent on commit
}

// Options configures a Manager.
type Options struct {
	// Granularity selects the conflict test (default OpGranularity).
	Granularity Granularity
	// WaitTimeout bounds one request's total blocking time; expiry reports
	// ErrDeadlock (liveness backstop). Zero means 10s.
	WaitTimeout time.Duration
}

// numStripes is the size of the stripe array. Shard names hash onto it;
// it is a power of two so the hash folds with a mask.
const numStripes = 64

// Manager is the lock manager; one Manager serves one object base.
type Manager struct {
	opts    Options
	stripes [numStripes]stripe
	owners  [numStripes]ownerShard
	waits   waitRegistry
	stats   *Stats
	// tr, when non-nil, records lock-wait spans (with object scope and
	// stripe rank) and deadlock-denial events into the flight recorder.
	tr *obs.Tracer
}

// stripe is one slice of the lock table: the shards whose names hash
// here, behind their own mutex.
type stripe struct {
	mu     sync.Mutex
	shards map[string]*shard
}

// ownerShard is one slice of the per-execution bookkeeping, hashed by
// top-level transaction number: the finished markers (rule 3) with
// their per-tree index (trees, so Retire finds a tree's markers without
// a scan of finished), the owner→shards index that lets commit/abort
// touch only the shards an execution actually locked, and the waited
// flags that let the common no-contention paths skip the global waits
// registry.
type ownerShard struct {
	mu       sync.Mutex
	finished map[string]bool
	// trees holds only the trees not yet retired — a handful per shard
	// (the in-flight transactions hashing here) — so it is searched
	// linearly, and retired entries keep their key arrays for reuse.
	trees   []treeMarks
	byOwner map[string]map[string]bool
	waited  map[string]bool
}

// treeMarks lists the finished executions of one execution tree.
type treeMarks struct {
	top  int32
	keys []string
}

// treeLocked returns top's entry in o.trees, adding one (on a retired
// entry's key array when there is one) if absent. Caller holds o.mu.
func (o *ownerShard) treeLocked(top int32) *treeMarks {
	for i := range o.trees {
		if o.trees[i].top == top {
			return &o.trees[i]
		}
	}
	n := len(o.trees)
	if n < cap(o.trees) {
		o.trees = o.trees[:n+1]
	} else {
		o.trees = append(o.trees, treeMarks{})
	}
	t := &o.trees[n]
	t.top = top
	t.keys = t.keys[:0]
	return t
}

// waitRegistry is the manager's only global state: the waits-for graph
// feeding deadlock detection, which needs a consistent view across all
// stripes. Its mutex is deliberately small-scope — blocking paths only —
// and is the innermost in the stripe → owner → waits order.
type waitRegistry struct {
	mu         sync.Mutex
	waitingFor map[string]waitInfo
}

type waitInfo struct {
	exec   core.ExecID
	owners []core.ExecID
}

type shard struct {
	held    []heldLock
	waiters []*Waiter
}

type heldLock struct {
	owner core.ExecID
	step  core.StepInfo // Ret meaningful only at StepGranularity
	rel   core.ConflictRelation
	count int
}

// Waiter represents one registered blocked request. The engine waits on it
// and retries.
type Waiter struct {
	m     *Manager
	key   string
	label string // tracing label: scope plus stripe rank ("" when off)
	exec  core.ExecID
	ch    chan struct{}
	start time.Time
}

// New returns a Manager.
func New(opts Options) *Manager {
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 10 * time.Second
	}
	m := &Manager{opts: opts, stats: &Stats{}}
	for i := range m.stripes {
		m.stripes[i].shards = make(map[string]*shard)
		m.owners[i].finished = make(map[string]bool)
		m.owners[i].byOwner = make(map[string]map[string]bool)
		m.owners[i].waited = make(map[string]bool)
	}
	m.waits.waitingFor = make(map[string]waitInfo)
	return m
}

// grantScanHook, when non-nil, runs between the blocker scan and the
// grant's ownership re-check — the window in which a concurrent finish
// (commit/abort) can interleave. Tests use it to pin the grant-vs-finish
// race deterministically; it is nil in production.
var grantScanHook func()

// fnv32 is FNV-1a, the stripe hash.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// stripeFor maps a shard name onto its lock-table stripe.
func (m *Manager) stripeFor(shardName string) *stripe {
	return &m.stripes[fnv32(shardName)&(numStripes-1)]
}

// ownerFor maps an execution onto its bookkeeping shard: the shard of
// its top-level transaction number (numbers are assigned sequentially,
// so consecutive transactions land on consecutive shards).
func (m *Manager) ownerFor(e core.ExecID) *ownerShard {
	return &m.owners[uint32(e[0])&(numStripes-1)]
}

// indexOwnerLocked records that owner holds a lock in shardName; caller
// holds the owner shard's mu.
func (o *ownerShard) indexOwnerLocked(owner core.ExecID, shardName string) {
	set := o.byOwner[owner.Key()]
	if set == nil {
		set = make(map[string]bool)
		o.byOwner[owner.Key()] = set
	}
	set[shardName] = true
}

// Stats returns the manager's counters.
func (m *Manager) Stats() *Stats { return m.stats }

// SetTracer wires the flight recorder into the manager's blocking
// paths. Call before traffic starts (it is not synchronised against
// in-flight requests). Nil turns tracing back off.
func (m *Manager) SetTracer(tr *obs.Tracer) { m.tr = tr }

// traceLabel names a lock scope for the flight recorder: the shard
// (conflict scope) name plus the stripe it hashes to — the lock-order
// rank context of the wait. Only built when tracing is on.
func traceLabel(key string) string {
	return key + " [stripe " + strconv.Itoa(int(fnv32(key)&(numStripes-1))) + "]"
}

// traceRing maps an execution to its flight-recorder ring: the
// top-level transaction number, matching the engine's choice so a
// transaction's lock waits land on its timeline.
func traceRing(e core.ExecID) uint64 { return uint64(uint32(e[0])) }

// WaitsForDOT snapshots the waits-for graph as a Graphviz DOT digraph:
// one edge per (waiter, blocking owner) pair, nodes named by execution
// key. The snapshot is taken under the registry lock, so it is a
// consistent picture of who waits for whom — the live deadlock
// diagnosis surface behind the debug server's /waitsfor endpoint.
func (m *Manager) WaitsForDOT() string {
	type edge struct{ from, to string }
	var edges []edge
	ordAcquire(ordRankWaits, "waits registry")
	m.waits.mu.Lock()
	for _, wi := range m.waits.waitingFor {
		from := wi.exec.Key()
		for _, o := range wi.owners {
			edges = append(edges, edge{from: from, to: o.Key()})
		}
	}
	ordRelease(ordRankWaits, "waits registry")
	m.waits.mu.Unlock()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	var b strings.Builder
	b.WriteString("digraph waitsfor {\n")
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -> %q;\n", e.from, e.to)
	}
	b.WriteString("}\n")
	return b.String()
}

// Granularity returns the manager's configured granularity.
func (m *Manager) Granularity() Granularity { return m.opts.Granularity }

func shardName(object string, rel core.ConflictRelation, step core.StepInfo) string {
	return core.ScopeOf(object, rel, step.Invocation())
}

// incompatible reports whether a held lock blocks the request: the held
// entry's operation/step conflicts with the requested one (rule 2's
// direction).
func (m *Manager) incompatible(h *heldLock, rel core.ConflictRelation, req core.StepInfo) bool {
	if m.opts.Granularity == StepGranularity {
		return rel.StepConflicts(h.step, req)
	}
	return rel.OpConflicts(h.step.Invocation(), req.Invocation())
}

// TryAcquire attempts to obtain the lock for req on object for execution e
// without blocking. On success it returns (true, nil, nil). If the request
// must wait, a Waiter is registered and returned — the caller must either
// Wait on it or Cancel it. If waiting can never succeed, ErrDeadlock is
// returned (and nothing is registered).
//
// TryAcquire may be called while holding the target object's latch: the
// manager never takes object latches, so the latch->manager lock order is
// safe. This is what makes the step-granularity protocol of Section 5.1
// atomic: provisional execution, conflict check and lock acquisition all
// happen under the latch.
func (m *Manager) TryAcquire(e core.ExecID, object string, rel core.ConflictRelation, req core.StepInfo) (bool, *Waiter, error) {
	key := shardName(object, rel, req)
	ek := e.Key()
	st := m.stripeFor(key)
	os := m.ownerFor(e)
	ordAcquire(ordRankStripe, "stripe")
	st.mu.Lock()
	ordAcquire(ordRankOwner, "owner shard")
	os.mu.Lock()
	if os.finished[ek] {
		ordRelease(ordRankOwner, "owner shard")
		os.mu.Unlock()
		ordRelease(ordRankStripe, "stripe")
		st.mu.Unlock()
		return false, nil, ErrFinished
	}
	ordRelease(ordRankOwner, "owner shard")
	os.mu.Unlock()
	sh := st.shards[key]
	if sh == nil {
		sh = &shard{}
		st.shards[key] = sh
	}
	blockers := m.blockers(sh, e, rel, req)
	if len(blockers) == 0 {
		if grantScanHook != nil {
			grantScanHook()
		}
		// Clear any stale waits-for entry and index ownership before the
		// grant lands in the shard: a concurrent detector (waits lock
		// only) must never see a granted request as still waiting. The
		// waited flag makes the registry visit conditional — an execution
		// that never blocked never touches the global lock here.
		ordAcquire(ordRankOwner, "owner shard")
		os.mu.Lock()
		if os.finished[ek] {
			// The execution finished (commit/abort — e.g. its WaitTimeout
			// fired on another lane) between the rule-3 check above and
			// this grant. Granting now would leak the lock: finish()
			// already consumed the owner index, so no release would ever
			// visit this shard. Refuse instead; if finish() runs after
			// this block, it collects the ownership indexed here and its
			// sweep (serialised behind the stripe lock we hold) releases
			// the grant.
			ordRelease(ordRankOwner, "owner shard")
			os.mu.Unlock()
			ordRelease(ordRankStripe, "stripe")
			st.mu.Unlock()
			return false, nil, ErrFinished
		}
		if os.waited[ek] {
			delete(os.waited, ek)
			ordAcquire(ordRankWaits, "waits registry")
			m.waits.mu.Lock()
			delete(m.waits.waitingFor, ek)
			ordRelease(ordRankWaits, "waits registry")
			m.waits.mu.Unlock()
		}
		os.indexOwnerLocked(e, key)
		ordRelease(ordRankOwner, "owner shard")
		os.mu.Unlock()
		m.grant(sh, e, rel, req)
		ordRelease(ordRankStripe, "stripe")
		st.mu.Unlock()
		m.stats.Acquires.Add(1)
		return true, nil, nil
	}
	ordAcquire(ordRankOwner, "owner shard")
	os.mu.Lock()
	os.waited[ek] = true
	ordRelease(ordRankOwner, "owner shard")
	os.mu.Unlock()
	ordAcquire(ordRankWaits, "waits registry")
	m.waits.mu.Lock()
	m.waits.waitingFor[ek] = waitInfo{exec: e, owners: blockers}
	if m.wouldDeadlockLocked(e) {
		delete(m.waits.waitingFor, ek)
		ordRelease(ordRankWaits, "waits registry")
		m.waits.mu.Unlock()
		ordRelease(ordRankStripe, "stripe")
		st.mu.Unlock()
		m.stats.Deadlocks.Add(1)
		if m.tr != nil {
			m.tr.Event(obs.PhaseLockWait, traceRing(e), e.Key(), traceLabel(key), "deadlock")
		}
		return false, nil, fmt.Errorf("%w: %s requesting %s on %s", ErrDeadlock, e, req.Invocation(), object)
	}
	ordRelease(ordRankWaits, "waits registry")
	m.waits.mu.Unlock()
	// The waiter is registered under the stripe lock, so a release on
	// this shard after the blockers were computed cannot miss it.
	w := &Waiter{m: m, key: key, exec: e, ch: make(chan struct{}, 1), start: time.Now()}
	if m.tr != nil {
		w.label = traceLabel(key)
	}
	sh.waiters = append(sh.waiters, w)
	ordRelease(ordRankStripe, "stripe")
	st.mu.Unlock()
	m.stats.Waits.Add(1)
	return false, w, nil
}

// Wait blocks until the lock situation may have changed or the manager's
// wait budget expires (ErrDeadlock). The caller then retries TryAcquire.
// The waiter stays registered across retries; Cancel it when giving up or
// after a successful TryAcquire (TryAcquire success auto-cancels the
// registered wait entry but not the shard registration — call Cancel).
func (w *Waiter) Wait() error { return w.WaitDone(nil) }

// WaitDone is Wait with an additional abandon signal: when done fires
// before the lock situation changes, the waiter is deregistered and
// ErrCancelled returned. A nil done never fires.
func (w *Waiter) WaitDone(done <-chan struct{}) error {
	var sp obs.Span
	if tr := w.m.tr; tr != nil {
		// One span per blocked stretch: from wait start to wake, timeout,
		// or cancellation.
		sp = tr.StartSpan(obs.PhaseLockWait, traceRing(w.exec), w.exec.Key(), w.label)
	}
	remaining := w.m.opts.WaitTimeout - time.Since(w.start)
	if remaining <= 0 {
		// Same rule as the timer branch below: a wake that already
		// arrived proves the lock situation changed — prefer the retry
		// over a spurious deadlock verdict.
		select {
		case <-w.ch:
			sp.EndWith("wake")
			return nil
		default:
		}
		w.Cancel()
		w.m.stats.Deadlocks.Add(1)
		sp.EndWith("timeout")
		return fmt.Errorf("%w: %s timed out", ErrDeadlock, w.exec)
	}
	t := time.NewTimer(remaining)
	defer t.Stop()
	select {
	case <-w.ch:
		sp.EndWith("wake")
		return nil
	case <-done:
		w.Cancel()
		sp.EndWith("cancel")
		return fmt.Errorf("%w: %s", ErrCancelled, w.exec)
	case <-t.C:
		// A wake-up racing the timeout means the lock situation changed
		// at the deadline: prefer the retry over a spurious deadlock
		// verdict (the caller's next TryAcquire decides for real).
		select {
		case <-w.ch:
			sp.EndWith("wake")
			return nil
		default:
		}
		w.Cancel()
		w.m.stats.Deadlocks.Add(1)
		sp.EndWith("timeout")
		return fmt.Errorf("%w: %s timed out", ErrDeadlock, w.exec)
	}
}

// Cancel deregisters the waiter.
func (w *Waiter) Cancel() {
	st := w.m.stripeFor(w.key)
	ordAcquire(ordRankStripe, "stripe")
	st.mu.Lock()
	if sh := st.shards[w.key]; sh != nil {
		for i, x := range sh.waiters {
			if x == w {
				sh.waiters = append(sh.waiters[:i], sh.waiters[i+1:]...)
				break
			}
		}
	}
	ordRelease(ordRankStripe, "stripe")
	st.mu.Unlock()
	ordAcquire(ordRankWaits, "waits registry")
	w.m.waits.mu.Lock()
	delete(w.m.waits.waitingFor, w.exec.Key())
	ordRelease(ordRankWaits, "waits registry")
	w.m.waits.mu.Unlock()
}

// Acquire is the blocking convenience used at OpGranularity (no provisional
// state to revalidate): it loops TryAcquire/Wait until granted or dead.
func (m *Manager) Acquire(e core.ExecID, object string, rel core.ConflictRelation, inv core.OpInvocation) error {
	return m.AcquireDone(e, object, rel, inv, nil)
}

// AcquireDone is Acquire with an abandon signal: when done fires while the
// request is blocked, the wait is abandoned with ErrCancelled. A nil done
// never fires.
func (m *Manager) AcquireDone(e core.ExecID, object string, rel core.ConflictRelation, inv core.OpInvocation, done <-chan struct{}) error {
	req := core.StepInfo{Op: inv.Op, Args: inv.Args}
	for {
		ok, w, err := m.TryAcquire(e, object, rel, req)
		if ok {
			return nil
		}
		if err != nil {
			return err
		}
		err = w.WaitDone(done)
		w.Cancel()
		if err != nil {
			return err
		}
	}
}

// blockers returns the owners of incompatible locks that are not ancestors
// of e, deduplicated.
func (m *Manager) blockers(sh *shard, e core.ExecID, rel core.ConflictRelation, req core.StepInfo) []core.ExecID {
	var out []core.ExecID
	seen := make(map[string]bool)
	for i := range sh.held {
		h := &sh.held[i]
		if h.owner.IsAncestorOf(e) {
			continue // rule 2: ancestors (and e itself) never block
		}
		if !m.incompatible(h, rel, req) {
			continue
		}
		if !seen[h.owner.Key()] {
			seen[h.owner.Key()] = true
			out = append(out, h.owner)
		}
	}
	return out
}

func (m *Manager) grant(sh *shard, e core.ExecID, rel core.ConflictRelation, req core.StepInfo) {
	for i := range sh.held {
		h := &sh.held[i]
		if h.owner.Equal(e) && h.step.Op == req.Op && sameArgs(h.step.Args, req.Args) && core.ValueEqual(h.step.Ret, req.Ret) {
			h.count++
			return
		}
	}
	sh.held = append(sh.held, heldLock{owner: e, step: req, rel: rel, count: 1})
}

func sameArgs(a, b []core.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !core.ValueEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// wouldDeadlockLocked reports whether e transitively waits for the
// completion of its own subtree — see the package comment for the
// wait-graph semantics. Called with waits.mu held: the waits-for graph
// is global, which is exactly why it lives behind the one registry lock
// rather than the stripes.
func (m *Manager) wouldDeadlockLocked(e core.ExecID) bool {
	neededCommits := func(w core.ExecID, owner core.ExecID) []core.ExecID {
		var out []core.ExecID
		lca, ok := core.LCA(w, owner)
		stop := 0
		if ok {
			stop = len(lca)
		}
		for l := len(owner); l > stop; l-- {
			out = append(out, owner[:l])
		}
		return out
	}

	visited := make(map[string]bool)
	var stack []core.ExecID
	push := func(x core.ExecID) bool {
		if x.IsAncestorOf(e) {
			return true // x's completion requires e's completion: cycle
		}
		if !visited[x.Key()] {
			visited[x.Key()] = true
			stack = append(stack, x)
		}
		return false
	}

	info, ok := m.waits.waitingFor[e.Key()]
	if !ok {
		return false
	}
	for _, owner := range info.owners {
		for _, x := range neededCommits(e, owner) {
			if push(x) {
				return true
			}
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, wi := range m.waits.waitingFor {
			if !x.IsAncestorOf(wi.exec) {
				continue
			}
			for _, owner := range wi.owners {
				for _, y := range neededCommits(wi.exec, owner) {
					if push(y) {
						return true
					}
				}
			}
		}
	}
	return false
}

// finish marks e finished (rule 3), drops its waits-for entry, and
// returns the shards it owned, consuming the owner index. The marker
// stays until Retire drops e's whole tree.
func (m *Manager) finish(e core.ExecID) map[string]bool {
	ek := e.Key()
	os := m.ownerFor(e)
	ordAcquire(ordRankOwner, "owner shard")
	os.mu.Lock()
	if !os.finished[ek] {
		os.finished[ek] = true
		t := os.treeLocked(e[0])
		t.keys = append(t.keys, ek)
	}
	names := os.byOwner[ek]
	delete(os.byOwner, ek)
	waited := os.waited[ek]
	delete(os.waited, ek)
	ordRelease(ordRankOwner, "owner shard")
	os.mu.Unlock()
	if waited {
		ordAcquire(ordRankWaits, "waits registry")
		m.waits.mu.Lock()
		delete(m.waits.waitingFor, ek)
		ordRelease(ordRankWaits, "waits registry")
		m.waits.mu.Unlock()
	}
	return names
}

// CommitTransfer implements rule 5 for a committing execution: its locks
// are inherited by its parent; a committing top-level execution discards
// them. The execution is marked finished (rule 3). Only the stripes
// where e actually held locks are visited; each is transferred
// independently, so a commit never serialises the whole table.
func (m *Manager) CommitTransfer(e core.ExecID) {
	parent := e.Parent()
	for name := range m.finish(e) {
		st := m.stripeFor(name)
		ordAcquire(ordRankStripe, "stripe")
		st.mu.Lock()
		sh := st.shards[name]
		if sh == nil {
			ordRelease(ordRankStripe, "stripe")
			st.mu.Unlock()
			continue
		}
		changed := false
		inherited := false
		out := sh.held[:0]
		for _, h := range sh.held {
			if !h.owner.Equal(e) {
				out = append(out, h)
				continue
			}
			changed = true
			if parent != nil {
				h.owner = parent
				out = append(out, h)
				inherited = true
				m.stats.Inherits.Add(1)
			}
		}
		sh.held = out
		if inherited {
			po := m.ownerFor(parent)
			ordAcquire(ordRankOwner, "owner shard")
			po.mu.Lock()
			po.indexOwnerLocked(parent, name)
			ordRelease(ordRankOwner, "owner shard")
			po.mu.Unlock()
		}
		if changed {
			wakeAll(sh)
		}
		ordRelease(ordRankStripe, "stripe")
		st.mu.Unlock()
	}
}

// ReleaseAll discards every lock owned by e (abort path) and marks it
// finished.
func (m *Manager) ReleaseAll(e core.ExecID) {
	for name := range m.finish(e) {
		st := m.stripeFor(name)
		ordAcquire(ordRankStripe, "stripe")
		st.mu.Lock()
		sh := st.shards[name]
		if sh == nil {
			ordRelease(ordRankStripe, "stripe")
			st.mu.Unlock()
			continue
		}
		changed := false
		out := sh.held[:0]
		for _, h := range sh.held {
			if h.owner.Equal(e) {
				changed = true
				continue
			}
			out = append(out, h)
		}
		sh.held = out
		if changed {
			wakeAll(sh)
		}
		ordRelease(ordRankStripe, "stripe")
		st.mu.Unlock()
	}
}

// Retire drops the finished markers (rule 3) of top's whole execution
// tree. Call it once no execution of the tree can request a lock again:
// the engine does when the top-level attempt has returned, its body and
// every Parallel lane joined. Until then the markers stay, so a lane
// whose execution already finished (its WaitTimeout abort landed on
// another lane) is still refused rather than granted a lock nothing
// would release. Retries run under fresh top-level numbers, so a
// retired tree is never seen again.
func (m *Manager) Retire(top core.ExecID) {
	os := m.ownerFor(top)
	ordAcquire(ordRankOwner, "owner shard")
	os.mu.Lock()
	for i := range os.trees {
		t := &os.trees[i]
		if t.top != top[0] {
			continue
		}
		for _, k := range t.keys {
			delete(os.finished, k)
		}
		clear(t.keys)
		last := len(os.trees) - 1
		os.trees[i], os.trees[last] = os.trees[last], os.trees[i]
		os.trees = os.trees[:last]
		break
	}
	ordRelease(ordRankOwner, "owner shard")
	os.mu.Unlock()
}

// Forget clears the finished marker (tests).
func (m *Manager) Forget(e core.ExecID) {
	os := m.ownerFor(e)
	ordAcquire(ordRankOwner, "owner shard")
	os.mu.Lock()
	delete(os.finished, e.Key())
	ordRelease(ordRankOwner, "owner shard")
	os.mu.Unlock()
}

func wakeAll(sh *shard) {
	for _, w := range sh.waiters {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// HeldBy returns the number of locks currently owned by e. The stripes
// are visited one at a time, so the count is exact only on a quiescent
// manager (tests, stats).
func (m *Manager) HeldBy(e core.ExecID) int {
	n := 0
	for i := range m.stripes {
		st := &m.stripes[i]
		ordAcquire(ordRankStripe, "stripe")
		st.mu.Lock()
		for _, sh := range st.shards {
			for _, h := range sh.held {
				if h.owner.Equal(e) {
					n += h.count
				}
			}
		}
		ordRelease(ordRankStripe, "stripe")
		st.mu.Unlock()
	}
	return n
}

// TotalHeld returns the number of held lock entries across all shards,
// stripe by stripe (exact only on a quiescent manager).
func (m *Manager) TotalHeld() int {
	n := 0
	for i := range m.stripes {
		st := &m.stripes[i]
		ordAcquire(ordRankStripe, "stripe")
		st.mu.Lock()
		for _, sh := range st.shards {
			n += len(sh.held)
		}
		ordRelease(ordRankStripe, "stripe")
		st.mu.Unlock()
	}
	return n
}
