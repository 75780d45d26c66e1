// Package upcxx is a minimal stand-in exposing the wire-payload surface
// nondetflow gates on, at its production import path.
package upcxx

type Rank struct{}

func (r *Rank) Rput(src []float64, dst int)    {}
func (r *Rank) RPC(target int, fn func(*Rank)) {}

func NewArrayFrom(vals []float64) []float64 { return vals }
