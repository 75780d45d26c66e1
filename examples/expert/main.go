// Expert: the production-solver workflow around a factorization — assess
// conditioning, solve with iterative refinement, persist the factor for
// later runs, and pull selected entries of the inverse. Everything here
// runs off a single Factorize call.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"sympack"
)

func main() {
	// A moderately ill-conditioned problem: a fine-grid Laplacian.
	a := sympack.Laplace2D(48, 48)
	fmt.Printf("system: n=%d, nnz=%d\n", a.N, a.NnzFull())

	f, err := sympack.Factorize(a, sympack.Options{Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factored in %v (%d supernodes, fill %.1fx)\n",
		f.Stats.Wall, f.Stats.Supernodes, float64(f.Stats.NnzL)/float64(a.Nnz()))

	// 1. Conditioning: Hager/Higham 1-norm estimate from a handful of
	// solves. (This generator adds a unit diagonal shift, so κ₁ stays
	// below ~9 at any grid size; an unshifted fine-grid Laplacian would
	// show thousands here.)
	cond, err := f.CondEst1(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated κ₁(A) ≈ %.3g\n", cond)

	// 2. Solve with refinement to working precision.
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, rel, iters, err := f.SolveRefined(a, b, 1e-15, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved with %d refinement steps: relative residual %.3g\n", iters, rel)
	_ = x

	// 3. Persist the factor; a later process reloads it and solves without
	// refactoring (here: round-trip through a buffer).
	var store bytes.Buffer
	if err := f.Save(&store); err != nil {
		log.Fatal(err)
	}
	factorBytes := store.Len()
	g, err := sympack.LoadFactor(&store)
	if err != nil {
		log.Fatal(err)
	}
	x2, err := g.SolveDistributed(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded factor (%d bytes) solves: residual %.3g\n",
		factorBytes, sympack.ResidualNorm(a, x2, b))

	// 4. Selected inversion: variance-like diagnostics need diag(A⁻¹).
	si, err := g.SelectedInverse()
	if err != nil {
		log.Fatal(err)
	}
	d := si.Diag()
	var dMax float64
	for _, v := range d {
		if v > dMax {
			dMax = v
		}
	}
	fmt.Printf("selected inversion: %d entries on the factor pattern, max diag(A⁻¹) = %.4f\n",
		si.Nnz(), dMax)
}
