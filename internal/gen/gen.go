// Package gen synthesizes the test problems used in the paper's evaluation.
//
// The paper measures three SuiteSparse matrices (Table 1): Flan_1565 (a 3D
// steel-flange elasticity model, n=1.56M), boneS10 (3D trabecular bone,
// n=915k) and thermal2 (steady-state thermal, n=1.23M, unusually sparse and
// irregular). Those files are proprietary-by-inconvenience here (no network),
// so this package generates scaled-down matrices in the same structural
// regimes:
//
//   - Flan3D:    3D hexahedral mesh with 3 dof per node and 27-point nodal
//     connectivity — large dense supernodes, high nnz/row (like Flan_1565's
//     ~73 nnz/row).
//   - Bone3D:    3D grid with random porosity (cells knocked out) — an
//     irregular 3D structure like trabecular bone.
//   - Thermal2D: 5-point stencil on a 2D domain with voids — very high
//     sparsity and thin supernodes (thermal2 has ~7 nnz/row).
//
// All generators emit symmetric positive definite matrices by construction
// (strict diagonal dominance with positive diagonal), so every generated
// problem can be factored and solved in tests and benchmarks.
package gen

import (
	"fmt"
	"math/rand"

	"sympack/internal/matrix"
)

// edge is an undirected graph edge with a coupling weight.
type edge struct {
	u, v int
	w    float64
}

// assembleSPD builds a symmetric strictly-diagonally-dominant matrix from an
// edge list: off-diagonal (u,v) gets -w, and each diagonal gets
// 1 + Σ|incident weights|. The result is SPD (Gershgorin).
func assembleSPD(n int, edges []edge) *matrix.SparseSym {
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 1
	}
	coo := matrix.NewCOO(n)
	for _, e := range edges {
		if e.u == e.v {
			continue
		}
		coo.Add(e.u, e.v, -e.w)
		diag[e.u] += e.w
		diag[e.v] += e.w
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, diag[i])
	}
	s, err := coo.ToSym()
	if err != nil {
		// assembleSPD is only called with in-range indices; a failure
		// here is a generator bug.
		panic(err)
	}
	return s
}

// Laplace2D returns the standard 5-point Laplacian on an nx×ny grid with a
// unit diagonal shift: the canonical well-understood test problem.
func Laplace2D(nx, ny int) *matrix.SparseSym {
	idx := func(i, j int) int { return i + j*nx }
	var edges []edge
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				edges = append(edges, edge{idx(i, j), idx(i+1, j), 1})
			}
			if j+1 < ny {
				edges = append(edges, edge{idx(i, j), idx(i, j+1), 1})
			}
		}
	}
	return assembleSPD(nx*ny, edges)
}

// Laplace3D returns the 7-point Laplacian on an nx×ny×nz grid.
func Laplace3D(nx, ny, nz int) *matrix.SparseSym {
	idx := func(i, j, k int) int { return i + nx*(j+ny*k) }
	var edges []edge
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if i+1 < nx {
					edges = append(edges, edge{idx(i, j, k), idx(i+1, j, k), 1})
				}
				if j+1 < ny {
					edges = append(edges, edge{idx(i, j, k), idx(i, j+1, k), 1})
				}
				if k+1 < nz {
					edges = append(edges, edge{idx(i, j, k), idx(i, j, k+1), 1})
				}
			}
		}
	}
	return assembleSPD(nx*ny*nz, edges)
}

// Flan3D generates a Flan_1565-like 3D elasticity problem: an nx×ny×nz node
// mesh with 3 degrees of freedom per node and 27-point connectivity; every
// pair of neighboring nodes couples all 3×3 dof combinations. The resulting
// matrix has n = 3·nx·ny·nz rows and a high nnz/row, which is what produces
// the large dense supernodes that make GPU offload profitable.
func Flan3D(nx, ny, nz int, seed int64) *matrix.SparseSym {
	rng := rand.New(rand.NewSource(seed))
	nodes := nx * ny * nz
	nid := func(i, j, k int) int { return i + nx*(j+ny*k) }
	var edges []edge
	addCoupling := func(a, b int) {
		// Couple all dof pairs of the two nodes, including cross terms.
		for da := 0; da < 3; da++ {
			for db := 0; db < 3; db++ {
				w := 0.5 + rng.Float64()
				if da != db {
					w *= 0.25 // weaker shear coupling
				}
				edges = append(edges, edge{3*a + da, 3*b + db, w})
			}
		}
		// Intra-node dof coupling on node a (added once per neighbor pass
		// is fine: weights just accumulate into dominance).
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				a := nid(i, j, k)
				// 27-point: half the neighbor offsets to avoid duplicates.
				for dk := 0; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							if dk == 0 && (dj < 0 || (dj == 0 && di <= 0)) {
								continue
							}
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || ii >= nx || jj < 0 || jj >= ny || kk < 0 || kk >= nz {
								continue
							}
							addCoupling(a, nid(ii, jj, kk))
						}
					}
				}
				// Intra-node dof block.
				for da := 0; da < 3; da++ {
					for db := da + 1; db < 3; db++ {
						edges = append(edges, edge{3*a + da, 3*a + db, 0.1 + 0.1*rng.Float64()})
					}
				}
			}
		}
	}
	return assembleSPD(3*nodes, edges)
}

// Bone3D generates a boneS10-like porous 3D structure: an nx×ny×nz grid from
// which a `porosity` fraction of nodes is removed (trabecular voids), the
// remainder renumbered compactly and connected by 7-point (face-neighbor)
// plus a sprinkling of diagonal couplings. The surviving structure is
// irregular, which stresses supernode detection and load balance.
func Bone3D(nx, ny, nz int, porosity float64, seed int64) *matrix.SparseSym {
	rng := rand.New(rand.NewSource(seed))
	total := nx * ny * nz
	keep := make([]bool, total)
	id := make([]int, total)
	n := 0
	for v := 0; v < total; v++ {
		if rng.Float64() >= porosity {
			keep[v] = true
			id[v] = n
			n++
		}
	}
	if n == 0 { // degenerate porosity: keep one node
		keep[0] = true
		id[0] = 0
		n = 1
	}
	idx := func(i, j, k int) int { return i + nx*(j+ny*k) }
	var edges []edge
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				a := idx(i, j, k)
				if !keep[a] {
					continue
				}
				type off struct{ di, dj, dk int }
				offs := []off{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0}, {1, 0, 1}, {0, 1, 1}}
				for _, o := range offs {
					ii, jj, kk := i+o.di, j+o.dj, k+o.dk
					if ii >= nx || jj >= ny || kk >= nz {
						continue
					}
					b := idx(ii, jj, kk)
					if !keep[b] {
						continue
					}
					// Diagonal couplings appear with lower probability,
					// mimicking partially connected trabeculae.
					isDiag := o.di+o.dj+o.dk > 1
					if isDiag && rng.Float64() > 0.35 {
						continue
					}
					edges = append(edges, edge{id[a], id[b], 0.5 + rng.Float64()})
				}
			}
		}
	}
	return assembleSPD(n, edges)
}

// Thermal2D generates a thermal2-like problem: a 5-point conduction stencil
// on an nx×ny plate with elliptical voids cut out, yielding a very sparse,
// irregular matrix (≈7 nnz/row like thermal2) whose thin supernodes keep
// most BLAS calls below GPU offload thresholds.
func Thermal2D(nx, ny int, voids int, seed int64) *matrix.SparseSym {
	rng := rand.New(rand.NewSource(seed))
	keep := make([]bool, nx*ny)
	for i := range keep {
		keep[i] = true
	}
	for v := 0; v < voids; v++ {
		cx, cy := rng.Float64()*float64(nx), rng.Float64()*float64(ny)
		rx := 1 + rng.Float64()*float64(nx)/12
		ry := 1 + rng.Float64()*float64(ny)/12
		x0, x1 := int(cx-rx), int(cx+rx)+1
		y0, y1 := int(cy-ry), int(cy+ry)+1
		for j := max(0, y0); j < min(ny, y1); j++ {
			for i := max(0, x0); i < min(nx, x1); i++ {
				dx := (float64(i) - cx) / rx
				dy := (float64(j) - cy) / ry
				if dx*dx+dy*dy <= 1 {
					keep[i+j*nx] = false
				}
			}
		}
	}
	id := make([]int, nx*ny)
	n := 0
	for v, k := range keep {
		if k {
			id[v] = n
			n++
		}
	}
	if n == 0 {
		keep[0] = true
		id[0] = 0
		n = 1
	}
	var edges []edge
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			a := i + j*nx
			if !keep[a] {
				continue
			}
			if i+1 < nx && keep[a+1] {
				edges = append(edges, edge{id[a], id[a+1], 0.5 + rng.Float64()})
			}
			if j+1 < ny && keep[a+nx] {
				edges = append(edges, edge{id[a], id[a+nx], 0.5 + rng.Float64()})
			}
		}
	}
	return assembleSPD(n, edges)
}

// RandomSPD returns an n×n SPD matrix with approximately `density` fraction
// of the strict lower triangle populated; used by property-based tests.
func RandomSPD(n int, density float64, seed int64) *matrix.SparseSym {
	rng := rand.New(rand.NewSource(seed))
	var edges []edge
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			if rng.Float64() < density {
				edges = append(edges, edge{i, j, 0.1 + rng.Float64()})
			}
		}
	}
	return assembleSPD(n, edges)
}

// Stats describes a generated matrix in the paper's Table 1 format.
type Stats struct {
	Name        string
	Description string
	N           int
	Nnz         int // full-matrix count, as in Table 1
}

// Table1Problem identifies one of the paper's three evaluation matrices.
type Table1Problem struct {
	Name        string
	Description string
	Build       func(scale int) *matrix.SparseSym
}

// Table1Problems returns generators for the three evaluation matrices at a
// given integer scale; scale 1 is sized for CI-speed tests. This is the one
// ladder: Table 1 describes, and Figs. 6–12 factor, these matrices (the
// committed BENCH_scaling.json was produced from them at scale 2).
func Table1Problems() []Table1Problem {
	return []Table1Problem{
		{
			Name:        "Flan_1565",
			Description: "3D model of a steel flange (synthetic analogue)",
			Build: func(scale int) *matrix.SparseSym {
				s := 4 + 3*scale
				return Flan3D(s, s, s, 1565)
			},
		},
		{
			Name:        "boneS10",
			Description: "3D trabecular bone (synthetic analogue)",
			Build: func(scale int) *matrix.SparseSym {
				s := 8 + 6*scale
				return Bone3D(s, s, s, 0.35, 10)
			},
		},
		{
			Name:        "thermal2",
			Description: "steady state thermal (synthetic analogue)",
			Build: func(scale int) *matrix.SparseSym {
				s := 64 + 96*scale
				return Thermal2D(s, s, s/16, 2)
			},
		},
	}
}

// Build generates the problem a command line names by kind and integer
// scale (≥ 1): the smaller ladder matgen and sympack2d -gen share.
func Build(kind string, scale int, seed int64) (*matrix.SparseSym, error) {
	if scale < 1 {
		return nil, fmt.Errorf("scale must be ≥ 1, got %d", scale)
	}
	switch kind {
	case "flan":
		s := 2 + scale
		return Flan3D(s, s, s, seed), nil
	case "bone":
		s := 4 + 2*scale
		return Bone3D(s, s, s, 0.35, seed), nil
	case "thermal":
		s := 8 + 8*scale
		return Thermal2D(s, s, scale, seed), nil
	case "laplace2d":
		s := 8 + 8*scale
		return Laplace2D(s, s), nil
	case "laplace3d":
		s := 3 + scale
		return Laplace3D(s, s, s), nil
	case "random":
		return RandomSPD(50*scale, 0.05, seed), nil
	default:
		return nil, fmt.Errorf("unknown kind %q (want flan, bone, thermal, laplace2d, laplace3d or random)", kind)
	}
}

// StatsOf computes Table 1 statistics for a matrix.
func StatsOf(name, desc string, m *matrix.SparseSym) Stats {
	return Stats{Name: name, Description: desc, N: m.N, Nnz: m.NnzFull()}
}
