// Package unusedignore reports //lint:ignore directives that suppress no
// diagnostic, following staticcheck's behavior for its own ignore
// directives. A suppression is an audited exception: it exists to silence
// one concrete finding with a written reason. When the code it excused is
// fixed or deleted the directive becomes dead weight — worse, a stale
// wildcard or analyzer-list directive can silently swallow the *next*
// genuine finding on that line. Keeping the table live means every
// directive in the tree is load-bearing.
//
// Mechanically the check is a post-run pass over the suppression table,
// not an AST walk: the runner (analysis.Audit) applies every directive to
// the run's diagnostic stream, records which ones matched, and reports
// the rest under this analyzer's name. The Analyzer value exists so the
// check is registered, listable, and suppressible (a directive can be
// excused with //lint:ignore unusedignore <reason> while a flaky finding
// stabilizes) like any other; its Run contributes no diagnostics of its
// own. A directive is only judged when every analyzer it names actually
// ran, so partial runs (analysistest suites of a few analyzers) cannot
// flag directives that are doing their job in the full suite — but they
// no longer stay silent either: each unjudgeable
// directive produces an informational note ("audit skipped: analyzers X
// did not run") that shows in the report without gating the build.
package unusedignore

import (
	"sympack/internal/lint/analysis"
)

// Name is the analyzer name the runner keys the audit on.
const Name = "unusedignore"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "flags //lint:ignore directives that suppress no diagnostic, so " +
		"stale escape hatches cannot linger (implemented by the runner's " +
		"suppression audit)",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		// The work happens in analysis.Audit after all analyzers ran;
		// registering this analyzer switches that audit on.
		return nil, nil
	},
}
