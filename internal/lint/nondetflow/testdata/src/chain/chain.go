// Package chain launders the clock through a chain of 40 helpers,
// declared caller first: each fi returns f(i+1)(), and only the last reads
// time.Now. The source must reach top's sink however deep the chain, and
// however many rounds a caller-first visit would need.
package chain

import (
	"time"

	"sympack/internal/upcxx"
)

func top(r *upcxx.Rank) {
	r.NewArrayFrom([]float64{f1()}) // want "wall clock \\(time\\.Now\\)\\) flows into a wire-visible array initialization"
}

func f1() float64 { return f2() }

func f2() float64 { return f3() }

func f3() float64 { return f4() }

func f4() float64 { return f5() }

func f5() float64 { return f6() }

func f6() float64 { return f7() }

func f7() float64 { return f8() }

func f8() float64 { return f9() }

func f9() float64 { return f10() }

func f10() float64 { return f11() }

func f11() float64 { return f12() }

func f12() float64 { return f13() }

func f13() float64 { return f14() }

func f14() float64 { return f15() }

func f15() float64 { return f16() }

func f16() float64 { return f17() }

func f17() float64 { return f18() }

func f18() float64 { return f19() }

func f19() float64 { return f20() }

func f20() float64 { return f21() }

func f21() float64 { return f22() }

func f22() float64 { return f23() }

func f23() float64 { return f24() }

func f24() float64 { return f25() }

func f25() float64 { return f26() }

func f26() float64 { return f27() }

func f27() float64 { return f28() }

func f28() float64 { return f29() }

func f29() float64 { return f30() }

func f30() float64 { return f31() }

func f31() float64 { return f32() }

func f32() float64 { return f33() }

func f33() float64 { return f34() }

func f34() float64 { return f35() }

func f35() float64 { return f36() }

func f36() float64 { return f37() }

func f37() float64 { return f38() }

func f38() float64 { return f39() }

func f39() float64 { return f40() }

func f40() float64 { return float64(time.Now().UnixNano()) }
