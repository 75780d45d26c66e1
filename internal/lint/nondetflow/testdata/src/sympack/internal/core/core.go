// Package core is a stand-in defining the RTQ entry fields the analyzer
// treats as ordering sinks.
package core

import "time"

type taskKind uint8

type task struct {
	kind taskKind
	id   int32
}

func renumber(t *task) {
	t.id = int32(time.Now().UnixNano()) // want "wall clock \\(time\\.Now\\)\\) flows into the RTQ entry field task\\.id"
}

func fresh() task {
	return task{kind: taskKind(time.Now().UnixNano())} // want "wall clock \\(time\\.Now\\)\\) flows into the RTQ entry field task\\.kind"
}

// renumberAudited proves the taint-kill path: the directive is consumed
// by the engine (no diagnostic below), and the unusedignore audit must
// still count it as used rather than stale.
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
