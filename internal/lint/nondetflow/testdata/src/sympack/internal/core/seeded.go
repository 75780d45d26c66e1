package core

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
)

// Seeded constructors are a function of the seed or generator they are
// given, so neither rule reports them: not as a direct use in this
// deterministic package, and not where their draws flow.
func seededIDs(seed uint64) task {
	pcg := randv2.New(randv2.NewPCG(seed, seed))
	cha := randv2.New(randv2.NewChaCha8([32]byte{}))
	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(seed))), 1.5, 1, 100)
	return task{id: int32(pcg.IntN(8) + cha.IntN(8) + int(zipf.Uint64()))}
}

// The global generator of math/rand/v2 is as unseeded as math/rand's.
func globalV2() task {
	return task{id: randv2.Int32N(8)} // want "unseeded rand\\.Int32N" "unseeded math/rand \\(Int32N\\)\\) flows into the RTQ entry field task\\.id"
}

// An address differs from run to run, so %p is a source too.
func label(t *task) string {
	return fmt.Sprintf("%p", t) // want "%p pointer formatting in deterministic package"
}
