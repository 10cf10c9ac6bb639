package curve

import "sync/atomic"

// Per-operation call counting.
//
// Every exported operator reports its call through countOp below, so the
// OpKind list is the one place that knows every operator entry point. When an
// OpCounter is attached, each operator call is reported under the operator's
// kind: calls per operator, Nancy's per-operation accounting (arXiv:2205.11449)
// as a count. A count repeats exactly from run to run, which a wall time does
// not; the cost of one call is measured where it can be measured alone, by
// the benchmarks. A kernel that folds intermediates with the raw combine
// (Deconvolve's candidate maximum) does not report them as operator calls of
// their own. Convolve's fallback to ConvolveExact is reported twice, as a
// convolve call and as a convolve_exact call, so the exact kernel's share of
// the convolutions shows.
//
// Detached (the default) an operator call pays a single atomic pointer load.

// OpKind names one counted operator.
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
	opConvExact
	opKindEnd
)

// NumOpKinds bounds the OpKind values: every kind k satisfies
// 0 < k < NumOpKinds, so a counter can keep its per-kind state in an array.
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
	opConvExact:    "convolve_exact",
}

// String returns the operator's metric label value.
func (op OpKind) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "unknown"
}

// OpKinds returns every operator kind a counter can report, so a metric
// registry can resolve the whole family once, up front.
func OpKinds() []OpKind {
	out := make([]OpKind, 0, NumOpKinds-1)
	for op := opMin; op < opKindEnd; op++ {
		out = append(out, op)
	}
	return out
}

// OpCounter receives one curve operator call.
type OpCounter func(op OpKind)

var opCounter atomic.Pointer[OpCounter]

// SetOpCounter attaches fn as the process-wide operation counter; nil
// detaches. The previous counter is returned so callers can restore it.
func SetOpCounter(fn OpCounter) (prev OpCounter) {
	var old *OpCounter
	if fn == nil {
		old = opCounter.Swap(nil)
	} else {
		old = opCounter.Swap(&fn)
	}
	if old == nil {
		return nil
	}
	return *old
}

// countOp reports one call of op when a counter is attached.
func countOp(op OpKind) {
	if c := opCounter.Load(); c != nil {
		(*c)(op)
	}
}
