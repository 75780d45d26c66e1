package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// A Verb is one operand-consuming piece of a printf format: the verb
// letter, or '*' for a star width or precision, and the index of the
// operand (counted after the format) that it consumes.
type Verb struct {
	Verb byte
	Arg  int
}

// FormatVerbs parses the format of a printf-style call, its first
// argument, into the verbs that consume operands, in order. It follows
// fmt's rules for flags, explicit [n] operand indexes and * widths and
// precisions. ok is false when the format is not a string literal.
func FormatVerbs(call *ast.CallExpr) (verbs []Verb, ok bool) {
	if len(call.Args) == 0 {
		return nil, false
	}
	lit, isLit := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !isLit || lit.Kind != token.STRING {
		return nil, false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return nil, false
	}
	arg := 0
	// index applies an [n] operand index at s[i:], if there is one.
	index := func(i int) int {
		if i < len(s) && s[i] == '[' {
			if j := strings.IndexByte(s[i:], ']'); j > 0 {
				if n, err := strconv.Atoi(s[i+1 : i+j]); err == nil && n > 0 {
					arg = n - 1
				}
				return i + j + 1
			}
		}
		return i
	}
	// width consumes a * width or precision at s[i:], or skips digits.
	width := func(i int) int {
		i = index(i)
		if i < len(s) && s[i] == '*' {
			verbs = append(verbs, Verb{'*', arg})
			arg++
			return i + 1
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		i++
		for i < len(s) && strings.IndexByte("+-# 0", s[i]) >= 0 {
			i++
		}
		i = width(i)
		if i < len(s) && s[i] == '.' {
			i = width(i + 1)
		}
		i = index(i)
		if i >= len(s) {
			break
		}
		if s[i] == '%' {
			continue // %% prints a percent sign and consumes nothing
		}
		verbs = append(verbs, Verb{s[i], arg})
		arg++
	}
	return verbs, true
}
