// The benchmark is a module of its own so that it carries its own build
// file; the module path sits under sympack/ so it may import the solver's
// internal packages, and the replace points at the checkout it measures.
module sympack/bench

go 1.22

require sympack v0.0.0

replace sympack => ../
