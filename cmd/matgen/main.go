// Command matgen generates the synthetic analogues of the paper's test
// matrices (Table 1) and writes them to disk in Matrix Market or
// Rutherford-Boeing format, the two formats the paper's experiments consume
// (AD/AE §A.2.4). `benchfig -fig table1` prints Table 1 itself.
//
// Usage:
//
//	matgen -kind flan -scale 4 -format rb -o flan.rb
//	matgen -kind thermal -scale 6 -format mm -o thermal.mtx
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sympack"
	"sympack/internal/gen"
)

func main() {
	var (
		kind   = flag.String("kind", "flan", "matrix kind: flan|bone|thermal|laplace2d|laplace3d|random")
		scale  = flag.Int("scale", 3, "integer problem scale (≥1)")
		format = flag.String("format", "rb", "output format: rb|mm")
		out    = flag.String("o", "", "output path (default stdout)")
		seed   = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := write(*kind, *scale, *seed, *format, *out); err != nil {
		fmt.Fprintln(os.Stderr, "matgen:", err)
		os.Exit(1)
	}
}

func write(kind string, scale int, seed int64, format, out string) error {
	a, err := gen.Build(kind, scale, seed)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if out != "" {
		fh, err := os.Create(out)
		if err != nil {
			return err
		}
		defer fh.Close()
		w = fh
	}
	switch format {
	case "rb":
		err = sympack.WriteRutherfordBoeing(w, a, fmt.Sprintf("%s scale %d", kind, scale))
	case "mm":
		err = sympack.WriteMatrixMarket(w, a)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "matgen: %s scale %d: n=%d nnz=%d\n", kind, scale, a.N, a.NnzFull())
	return nil
}
