// Package upcxx is a minimal stand-in exposing the wire-payload surface
// nondetflow gates on, at its production import path.
package upcxx

type Rank struct{}

type Msg struct {
	Kind uint8
	Back bool
	From int32
	ID   int32
}

func (r *Rank) NewArrayFrom(data []float64) []float64 { return data }
func (r *Rank) Signal(target int, m Msg)              {}
