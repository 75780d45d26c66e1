package app

import (
	"sympack/internal/upcxx"
	"sympack/internal/wrap"
)

func run() {
	f := upcxx.Start()
	wrap.Swallow(f)
}
