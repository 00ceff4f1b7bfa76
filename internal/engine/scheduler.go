// Package engine is the object-base runtime: it executes nested
// transactions (method executions, Definition 4) over a set of in-memory
// objects, delegating every synchronisation decision to a pluggable
// Scheduler, and records the full history h = (E, <, B, S) of each run so
// that the offline oracle (internal/graph) can verify exactly what the
// scheduler admitted.
//
// The runtime implements the paper's execution model:
//
//   - transactions are methods of the environment object; they invoke
//     methods of objects (messages), which invoke further methods —
//     arbitrary nesting, including re-entering an object (footnote 1);
//   - a method may exhibit internal parallelism (Ctx.Parallel), issuing
//     messages simultaneously;
//   - local steps are atomic: each is applied under its object's latch;
//   - aborts follow Section 3: an aborted execution's effects are undone
//     (semantics (a)), its descendants abort with it (semantics (b)), and
//     the parent observes the abort as an error return from Call and may
//     try an alternative;
//   - for schedulers that admit access to uncommitted effects (timestamp
//     ordering, certification), the engine tracks commit dependencies and
//     performs cascading aborts so that committed histories never contain
//     dirty reads.
package engine

import (
	"errors"
	"fmt"

	"objectbase/internal/core"
)

// Scheduler is the concurrency-control policy plugged into the engine.
// Implementations live in internal/cc; the engine itself ships only None.
//
// The engine calls Begin when a method execution starts, Step for every
// local operation (the scheduler decides when and whether to apply it,
// using the Object's latch/peek/apply primitives), Commit when a method
// execution finishes normally (a returned error converts the finish into
// an abort — this is where certifying schedulers validate), and Abort when
// it aborts.
type Scheduler interface {
	Name() string
	Begin(e *Exec) error
	Step(e *Exec, obj *Object, inv core.OpInvocation) (core.Value, error)
	Commit(e *Exec) error
	Abort(e *Exec)
}

// Retirer is implemented by schedulers that keep per-execution state
// past an execution's finish (the lock manager's rule-3 markers). The
// engine calls Retire once a top-level attempt has returned — its body
// and every Parallel lane joined — so no execution of the tree can
// reach the scheduler again.
type Retirer interface {
	Retire(top core.ExecID)
}

// retire hands a finished top-level attempt to sch if it is a Retirer.
func retire(sch Scheduler, top core.ExecID) {
	if r, ok := sch.(Retirer); ok {
		r.Retire(top)
	}
}

// None is the empty scheduler: no synchronisation at all beyond step
// atomicity. Concurrent transactions freely interleave; the oracle then
// detects the resulting non-serialisable histories. Experiments use it to
// demonstrate that the anomalies the paper's algorithms prevent actually
// occur.
type None struct{}

// Name implements Scheduler.
func (None) Name() string { return "none" }

// Begin implements Scheduler.
func (None) Begin(e *Exec) error { return nil }

// Step implements Scheduler: apply immediately.
func (None) Step(e *Exec, obj *Object, inv core.OpInvocation) (core.Value, error) {
	st, err := obj.ApplyFor(e, inv)
	if err != nil {
		return nil, err
	}
	return st.Ret, nil
}

// Commit implements Scheduler.
func (None) Commit(e *Exec) error { return nil }

// Abort implements Scheduler.
func (None) Abort(e *Exec) {}

// AbortError is the error carried by aborted method executions.
type AbortError struct {
	Exec   core.ExecID
	Reason string
	// Retriable marks aborts caused by synchronisation (deadlock victim,
	// timestamp rejection, cascade, certification failure): the engine
	// retries the top-level transaction with a fresh identity. User aborts
	// are not retriable by the engine.
	Retriable bool
	Err       error
}

// Error implements error.
func (a *AbortError) Error() string {
	return fmt.Sprintf("engine: execution %s aborted (%s)", a.Exec, a.Reason)
}

// Unwrap exposes the cause.
func (a *AbortError) Unwrap() error { return a.Err }

// Retriable reports whether err is an abort the engine may retry.
func Retriable(err error) bool {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Retriable
	}
	return false
}

// ErrKilled is the reason used when a transaction is cascade-aborted
// because a transaction whose uncommitted effects it observed aborted.
var ErrKilled = errors.New("engine: cascade abort")
