package gpufpx

import (
	"context"
	"errors"
	"fmt"

	"gpufpx/internal/cc"
	"gpufpx/internal/device"
)

// ErrorKind is the stable failure taxonomy of the public API. Every error
// returned by Session.Run wraps one of these kinds, so consumers — the CLIs,
// fpx-serve's HTTP status mapping, CI gates — classify failures with a type
// switch instead of matching message strings.
type ErrorKind int

const (
	// KindInternal is an unclassified failure (a harness bug or a launch
	// error outside the known taxonomy).
	KindInternal ErrorKind = iota
	// KindUnknownProgram names a corpus program (or fixed variant) that
	// does not exist.
	KindUnknownProgram
	// KindBadSource is a malformed source: unparseable SASS text or an
	// ill-formed launch geometry.
	KindBadSource
	// KindCompile is a kernel-compilation failure (cc.Error anywhere in
	// the chain).
	KindCompile
	// KindHang wraps device.ErrHang: the run exceeded the channel
	// watchdog's stall budget.
	KindHang
	// KindBudget wraps device.ErrBudget: the run exceeded its dynamic
	// instruction budget (the deterministic per-job timeout).
	KindBudget
	// KindResource is a device resource fault recovered at the facade
	// barrier: global-memory exhaustion or an out-of-bounds access — the
	// simulator's analogue of cudaErrorIllegalAddress. fpx-serve maps it
	// to 507.
	KindResource
	// KindCanceled wraps device.ErrCanceled or a context error: the caller
	// gave up on the run (client disconnect, deadline) and the launch was
	// stopped cooperatively.
	KindCanceled
)

// String names the kind for logs and wire payloads.
func (k ErrorKind) String() string {
	switch k {
	case KindUnknownProgram:
		return "unknown_program"
	case KindBadSource:
		return "bad_source"
	case KindCompile:
		return "compile"
	case KindHang:
		return "hang"
	case KindBudget:
		return "budget"
	case KindResource:
		return "resource"
	case KindCanceled:
		return "canceled"
	default:
		return "internal"
	}
}

// Error is the typed error of the public API.
type Error struct {
	// Kind classifies the failure.
	Kind ErrorKind
	// Op describes what the session was doing ("run myocyte",
	// "parse kernel.sass").
	Op string
	// Err is the underlying cause; device.ErrHang and device.ErrBudget
	// remain reachable through errors.Is.
	Err error
}

// Error renders the failure with its operation context.
func (e *Error) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("gpufpx: %v", e.Err)
	}
	return fmt.Sprintf("gpufpx: %s: %v", e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Classify maps any error to its taxonomy kind: an *Error's own kind, or
// the kind inferred from known sentinels in the chain.
func Classify(err error) ErrorKind {
	var ge *Error
	if errors.As(err, &ge) {
		return ge.Kind
	}
	return classifyCause(err)
}

// classifyCause infers a kind from the internal sentinels.
func classifyCause(err error) ErrorKind {
	switch {
	case errors.Is(err, device.ErrHang):
		return KindHang
	case errors.Is(err, device.ErrBudget):
		return KindBudget
	case errors.Is(err, device.ErrCanceled), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return KindCanceled
	case errors.Is(err, device.ErrUnsupported), errors.Is(err, device.ErrBadGeometry):
		// Malformed SASS or a launch geometry the device cannot run,
		// rejected at launch time: the caller's source is at fault, same
		// as a parse error.
		return KindBadSource
	}
	var rf *device.RuntimeFault
	if errors.As(err, &rf) {
		return KindResource
	}
	var ce *cc.Error
	if errors.As(err, &ce) {
		return KindCompile
	}
	return KindInternal
}

// recoveredError converts a recovered panic value into a classified error:
// typed device faults become KindResource; anything else is KindInternal —
// a harness bug the barrier contains instead of letting it kill the
// process.
func recoveredError(op string, r any) error {
	if rf, ok := r.(*device.RuntimeFault); ok {
		return &Error{Kind: KindResource, Op: op, Err: rf}
	}
	if err, ok := r.(error); ok {
		return &Error{Kind: KindInternal, Op: op, Err: fmt.Errorf("panic: %w", err)}
	}
	return &Error{Kind: KindInternal, Op: op, Err: fmt.Errorf("panic: %v", r)}
}

// wrapErr folds an error into the taxonomy, preserving an existing *Error.
func wrapErr(op string, err error) error {
	if err == nil {
		return nil
	}
	var ge *Error
	if errors.As(err, &ge) {
		return err
	}
	return &Error{Kind: classifyCause(err), Op: op, Err: err}
}
