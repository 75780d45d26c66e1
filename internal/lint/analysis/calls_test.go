package analysis

import (
	"go/ast"
	"go/parser"
	"reflect"
	"testing"
)

// TestFormatVerbs pins the printf parser errflow's %w tracking and
// nondetflow's %p source share: operand indexes follow fmt's rules for
// %%, star widths and precisions, and explicit [n] indexes.
func TestFormatVerbs(t *testing.T) {
	for _, tc := range []struct {
		call string
		want []Verb
		ok   bool
	}{
		{`f("plain")`, nil, true},
		{`f("%d %% %v", a, b)`, []Verb{{'d', 0}, {'v', 1}}, true},
		{`f("%-08.3f|%+q", a, b)`, []Verb{{'f', 0}, {'q', 1}}, true},
		{`f("%*d %.*s", w, a, p, b)`, []Verb{{'*', 0}, {'d', 1}, {'*', 2}, {'s', 3}}, true},
		{`f("%[2]v %[1]w %v", a, b)`, []Verb{{'v', 1}, {'w', 0}, {'v', 1}}, true},
		{`f("%[3]*.[2]*[1]p", a, b, c)`, []Verb{{'*', 2}, {'*', 1}, {'p', 0}}, true},
		{"f(`%p`, a)", []Verb{{'p', 0}}, true},
		{`f("\x25p", a)`, []Verb{{'p', 0}}, true},
		{`f(format, a)`, nil, false},
		{`f()`, nil, false},
	} {
		e, err := parser.ParseExpr(tc.call)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := FormatVerbs(e.(*ast.CallExpr))
		if ok != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("FormatVerbs(%s) = %v, %v; want %v, %v", tc.call, got, ok, tc.want, tc.ok)
		}
	}
}
