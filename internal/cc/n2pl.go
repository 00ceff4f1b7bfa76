// Package cc implements the paper's concurrency-control algorithms as
// engine schedulers:
//
//   - N2PL — nested two-phase locking (Moss's algorithm, Section 5.1,
//     Theorem 3), at either operation or step granularity;
//   - NTO — nested timestamp ordering (Reed's algorithm, Section 5.2,
//     Theorem 4), conservative or exact;
//   - Gemstone — the Section 1 baseline that treats each object as a data
//     item with one active method execution at a time;
//   - Modular — the Theorem 5 decomposition: objects synchronise their own
//     steps locally while an optimistic inter-object certifier ensures the
//     per-object serialisation orders are compatible (Section 5.3/6).
//
// All schedulers run over the same engine and object library, and every
// history they admit is checked by the internal/graph oracle in this
// package's tests: the empirical form of Theorems 3, 4 and 5.
package cc

import (
	"errors"
	"time"

	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/lock"
)

// lockAbort maps a lock-manager failure to the engine's abort vocabulary:
// deadlock victims and timeouts are retriable synchronisation aborts;
// an abandoned wait (the transaction's context expired) is final.
func lockAbort(e *engine.Exec, reason string, err error) error {
	if errors.Is(err, lock.ErrCancelled) {
		return &engine.AbortError{Exec: e.ID(), Reason: "context", Retriable: false, Err: e.Context().Err()}
	}
	return &engine.AbortError{Exec: e.ID(), Reason: reason, Retriable: true, Err: err}
}

// N2PL is nested two-phase locking. Rules 1-5 of Section 5.1 are enforced
// by the lock manager; the scheduler wires them to the engine's execution
// events:
//
//   - operation granularity (the common implementation, used by Moss):
//     lock the operation, then execute;
//   - step granularity (Weihl's return-value refinement): provisionally
//     execute under the object latch, lock the completed step, apply —
//     atomically, retrying when the lock must wait.
type N2PL struct {
	mgr *lock.Manager
}

// NewN2PL returns an N2PL scheduler. waitTimeout bounds lock waits (zero
// means the manager default).
func NewN2PL(g lock.Granularity, waitTimeout time.Duration) *N2PL {
	return &N2PL{mgr: lock.New(lock.Options{Granularity: g, WaitTimeout: waitTimeout})}
}

// Name implements engine.Scheduler.
func (s *N2PL) Name() string { return "n2pl-" + s.mgr.Granularity().String() }

// Manager exposes the lock manager (stats for experiments).
func (s *N2PL) Manager() *lock.Manager { return s.mgr }

// Begin implements engine.Scheduler.
func (s *N2PL) Begin(e *engine.Exec) error { return nil }

// Step implements engine.Scheduler.
func (s *N2PL) Step(e *engine.Exec, obj *engine.Object, inv core.OpInvocation) (core.Value, error) {
	rel := obj.Schema().Conflicts
	if s.mgr.Granularity() == lock.OpGranularity {
		// Rule 1 at operation granularity: own L(a) before issuing a.
		if err := s.mgr.AcquireDone(e.ID(), obj.Name(), rel, inv, e.Context().Done()); err != nil {
			return nil, lockAbort(e, "deadlock victim", err)
		}
		st, err := obj.ApplyFor(e, inv)
		if err != nil {
			return nil, err
		}
		return st.Ret, nil
	}

	// Step granularity: provisional execution + atomic lock acquisition
	// under the object latch (Section 5.1, second implementation).
	for {
		obj.Latch()
		st, err := obj.PeekLocked(inv)
		if err != nil {
			obj.Unlatch()
			return nil, err
		}
		ok, w, err := s.mgr.TryAcquire(e.ID(), obj.Name(), rel, st)
		if ok {
			applied, err := obj.ApplyForLocked(e, inv)
			obj.Unlatch()
			if err != nil {
				return nil, err
			}
			return applied.Ret, nil
		}
		obj.Unlatch()
		if err != nil {
			return nil, lockAbort(e, "deadlock victim", err)
		}
		// Wait for the lock situation to change, then retry: the paper's
		// "the actual processing of the operation must be delayed until a
		// later provisional execution results in a step for which a lock
		// can be acquired".
		werr := w.WaitDone(e.Context().Done())
		w.Cancel()
		if werr != nil {
			return nil, lockAbort(e, "deadlock victim", werr)
		}
	}
}

// Commit implements engine.Scheduler: rule 5, locks pass to the parent (or
// are discarded at top level). The striped manager visits only the
// stripes this execution locked, so concurrent commits against disjoint
// scopes never serialise on each other.
func (s *N2PL) Commit(e *engine.Exec) error {
	s.mgr.CommitTransfer(e.ID())
	return nil
}

// Abort implements engine.Scheduler: an aborted execution's locks are
// discarded (again touching only the stripes it locked).
func (s *N2PL) Abort(e *engine.Exec) {
	s.mgr.ReleaseAll(e.ID())
}

// Retire implements engine.Retirer: the finished top-level attempt's
// rule-3 markers are dropped (no execution of its tree can request a
// lock again).
func (s *N2PL) Retire(top core.ExecID) { s.mgr.Retire(top) }

// RequiresDependencyTracking reports whether the engine must track
// commit dependencies for this scheduler. Lock-based schedulers prevent
// access to uncommitted effects, so: no.
func (s *N2PL) RequiresDependencyTracking() bool { return false }
