package core

import "sync/atomic"

// AnalysisTimer receives the wall-clock duration of one computed pipeline
// analysis — a chain pass (Bound) or a full analysis (Analyze): a call
// without a Memo, or one whose Memo entry lacked the half asked for.
type AnalysisTimer func(seconds float64)

var analysisTimer atomic.Pointer[AnalysisTimer]

// SetAnalysisTimer attaches fn as the process-wide analysis timer; nil
// detaches. Memo hits are not timed — only real Analyze work is reported —
// so the resulting histogram measures the cost/accuracy trade-off the
// bounds computation actually pays (cf. Bouillard 2020). The previous timer
// is returned so callers can restore it.
func SetAnalysisTimer(fn AnalysisTimer) (prev AnalysisTimer) {
	var old *AnalysisTimer
	if fn == nil {
		old = analysisTimer.Swap(nil)
	} else {
		old = analysisTimer.Swap(&fn)
	}
	if old == nil {
		return nil
	}
	return *old
}
