package core

import (
	"sync/atomic"
	"time"
)

// AnalysisTimer receives the wall-clock duration of one computed pipeline
// analysis (an Analyze call, or an AnalyzeMemo call that missed its Memo).
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

// timedAnalyze runs analyze, reporting its duration when a timer is
// attached. Detached cost: one atomic pointer load per computed analysis.
func timedAnalyze(p Pipeline) (*Analysis, error) {
	t := analysisTimer.Load()
	if t == nil {
		return analyze(p)
	}
	start := time.Now()
	a, err := analyze(p)
	(*t)(time.Since(start).Seconds())
	return a, err
}
