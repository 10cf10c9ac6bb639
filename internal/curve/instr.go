package curve

import (
	"sync/atomic"
	"time"
)

// Per-operation timing instrumentation.
//
// Every exported operator calls its kernel through one of the timed*
// functions below, so this file is the one place that knows every operator
// entry point. When an OpTimer is attached, each operator call reports its
// wall-clock cost under the operator's kind, matching Nancy's per-operation
// cost accounting (arXiv:2205.11449). A kernel that folds intermediates with
// the raw combine (Deconvolve's candidate maximum) counts them in its own
// time, not as operator calls of their own.
//
// Detached (the default) the hot path pays a single atomic pointer load per
// operator call.

// OpKind names one timed operator.
type OpKind uint8

const (
	opMin OpKind = iota + 1
	opMax
	opAdd
	opConv
	opDeconv
	opResidual
	opHDev
	opVDev
	opShiftRight
	opAddBurst
	opSubConst
	opConcaveHull
	opFIFOResidual
	opKindEnd
)

// NumOpKinds bounds the OpKind values: every kind k satisfies
// 0 < k < NumOpKinds, so a timer can keep its per-kind state in an array.
const NumOpKinds = int(opKindEnd)

var opNames = [NumOpKinds]string{
	opMin:          "min",
	opMax:          "max",
	opAdd:          "add",
	opConv:         "convolve",
	opDeconv:       "deconvolve",
	opResidual:     "residual",
	opHDev:         "hdev",
	opVDev:         "vdev",
	opShiftRight:   "shift_right",
	opAddBurst:     "add_burst",
	opSubConst:     "sub_const",
	opConcaveHull:  "concave_hull",
	opFIFOResidual: "fifo_residual",
}

// String returns the operator's metric label value.
func (op OpKind) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "unknown"
}

// OpKinds returns every operator kind a timer can report, so a metric
// registry can resolve the whole timing family once, up front.
func OpKinds() []OpKind {
	out := make([]OpKind, 0, NumOpKinds-1)
	for op := opMin; op < opKindEnd; op++ {
		out = append(out, op)
	}
	return out
}

// OpTimer receives the wall-clock duration of one curve operator call.
type OpTimer func(op OpKind, seconds float64)

var opTimer atomic.Pointer[OpTimer]

// SetOpTimer attaches fn as the process-wide operation timer; nil detaches.
// The previous timer is returned so callers can restore it.
func SetOpTimer(fn OpTimer) (prev OpTimer) {
	var old *OpTimer
	if fn == nil {
		old = opTimer.Swap(nil)
	} else {
		old = opTimer.Swap(&fn)
	}
	if old == nil {
		return nil
	}
	return *old
}

// timedCurve runs compute, reporting its duration when a timer is attached.
func timedCurve(op OpKind, compute func() Curve) Curve {
	t := opTimer.Load()
	if t == nil {
		return compute()
	}
	start := time.Now()
	c := compute()
	(*t)(op, time.Since(start).Seconds())
	return c
}

// timedCurveOK is timedCurve for (Curve, bool)-valued operations.
func timedCurveOK(op OpKind, compute func() (Curve, bool)) (Curve, bool) {
	t := opTimer.Load()
	if t == nil {
		return compute()
	}
	start := time.Now()
	c, ok := compute()
	(*t)(op, time.Since(start).Seconds())
	return c, ok
}

// timedScalar is timedCurve for float64-valued operations (HDev, VDev).
func timedScalar(op OpKind, compute func() float64) float64 {
	t := opTimer.Load()
	if t == nil {
		return compute()
	}
	start := time.Now()
	s := compute()
	(*t)(op, time.Since(start).Seconds())
	return s
}
