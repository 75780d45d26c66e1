// Package core is a stand-in defining the RTQ entry fields the analyzer
// treats as ordering sinks. Its path is in the deterministic set, so a
// clock read here is reported by the direct rule as well as where it
// flows.
package core

import "time"

type taskKind uint8

type task struct {
	kind taskKind
	id   int32
}

func renumber(t *task) {
	t.id = int32(time.Now().UnixNano()) // want "direct time\\.Now" "wall clock \\(time\\.Now\\)\\) flows into the RTQ entry field task\\.id"
}

func fresh() task {
	return task{kind: taskKind(time.Now().UnixNano())} // want "direct time\\.Now" "wall clock \\(time\\.Now\\)\\) flows into the RTQ entry field task\\.kind"
}

// renumberAudited proves that one directive on a source answers both
// rules: it suppresses the direct finding and kills the taint, and the
// unusedignore audit counts it as used rather than stale.
func renumberAudited(t *task) {
	//lint:ignore nondetflow tie-breaker only; queue position fixed upstream by the push order
	t.id = int32(time.Now().UnixNano())
}

// reseed keeps the helpers referenced so the package type-checks without
// unused warnings under stricter vet configurations.
func reseed(t *task) {
	renumber(t)
	renumberAudited(t)
	_ = fresh()
}
