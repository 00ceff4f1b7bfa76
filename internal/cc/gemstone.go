package cc

import (
	"time"

	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/lock"
)

// Gemstone is the Section 1 baseline: "view each object as a data item,
// treat a method invocation as a group of read or write operations on those
// data items ... and require that only one method execution can be active
// at each object at any one time. With these restrictions, any conventional
// database concurrency control method can be employed" — the approach of
// the Gemstone project.
//
// Concretely: whole-object locks in classical R/W modes, owned directly by
// the *top-level* transaction (nesting is flattened — the conventional
// scheduler knows nothing of subtransactions) and held until it finishes
// (strict 2PL). A method execution takes its object's lock at entry — in W
// mode unless the method was registered read-only — so at most one writer
// method is ever active per object; local steps re-assert the lock,
// upgrading R to W when a mutating operation appears.
//
// The experiments compare this baseline against method-level N2PL: when
// methods are long and touch little state, whole-object exclusion costs
// exactly the concurrency the paper's model recovers.
type Gemstone struct {
	mgr *lock.Manager
	// readOnlyMethod reports whether object.method is known read-only
	// (lockable in R mode). Nil means nothing is.
	readOnlyMethod func(object, method string) bool
}

// objectRW is the synthetic whole-object conflict relation: one scope per
// object, classical R/W modes.
var objectRW = core.RWTable([]string{"R"}, []string{"W"}, core.SingleKey)

// NewGemstone returns the baseline scheduler. readOnly (optional) marks
// methods lockable in shared mode.
func NewGemstone(waitTimeout time.Duration, readOnly func(object, method string) bool) *Gemstone {
	return &Gemstone{
		mgr:            lock.New(lock.Options{Granularity: lock.OpGranularity, WaitTimeout: waitTimeout}),
		readOnlyMethod: readOnly,
	}
}

// Name implements engine.Scheduler.
func (s *Gemstone) Name() string { return "gemstone" }

// Manager exposes the lock manager (stats).
func (s *Gemstone) Manager() *lock.Manager { return s.mgr }

func (s *Gemstone) lockObject(e *engine.Exec, object string, wr bool) error {
	mode := "R"
	if wr {
		mode = "W"
	}
	top := e.ID().Top()
	if err := s.mgr.AcquireDone(top, object, objectRW, core.OpInvocation{Op: mode}, e.Context().Done()); err != nil {
		return lockAbort(e, "deadlock victim (object lock)", err)
	}
	return nil
}

// Begin implements engine.Scheduler: entering a method of an object takes
// the whole-object lock for the top-level transaction.
func (s *Gemstone) Begin(e *engine.Exec) error {
	if len(e.ID()) == 1 {
		return nil // the environment is not lockable
	}
	wr := true
	if s.readOnlyMethod != nil && s.readOnlyMethod(e.ObjectName(), e.Method()) {
		wr = false
	}
	return s.lockObject(e, e.ObjectName(), wr)
}

// Step implements engine.Scheduler: re-assert the object lock (upgrading
// to W for mutating operations), then apply.
func (s *Gemstone) Step(e *engine.Exec, obj *engine.Object, inv core.OpInvocation) (core.Value, error) {
	wr := true
	if op, err := obj.Schema().Op(inv.Op); err == nil && op.ReadOnly {
		wr = false
	}
	if err := s.lockObject(e, obj.Name(), wr); err != nil {
		return nil, err
	}
	st, err := obj.ApplyFor(e, inv)
	if err != nil {
		return nil, err
	}
	return st.Ret, nil
}

// Commit implements engine.Scheduler: only the top-level completion
// releases (locks are owned by the top — flat 2PL).
func (s *Gemstone) Commit(e *engine.Exec) error {
	if len(e.ID()) == 1 {
		s.mgr.CommitTransfer(e.ID())
	}
	return nil
}

// Abort implements engine.Scheduler.
func (s *Gemstone) Abort(e *engine.Exec) {
	if len(e.ID()) == 1 {
		s.mgr.ReleaseAll(e.ID())
	}
}

// Retire implements engine.Retirer (see N2PL.Retire).
func (s *Gemstone) Retire(top core.ExecID) { s.mgr.Retire(top) }

// RequiresDependencyTracking: locks prevent dirty access.
func (s *Gemstone) RequiresDependencyTracking() bool { return false }
