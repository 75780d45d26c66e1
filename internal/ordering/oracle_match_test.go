package ordering

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sympack/internal/gen"
	"sympack/internal/graph"
	"sympack/internal/matrix"
)

// fromEdges builds the SPD-patterned matrix of an undirected graph; relabel,
// when set, renames vertex v to relabel[v], so that the pieces of a
// disconnected graph interleave by id.
func fromEdges(n int, edges [][2]int, relabel []int) *matrix.SparseSym {
	c := matrix.NewCOO(n)
	for v := 0; v < n; v++ {
		c.Add(v, v, float64(n))
	}
	for _, e := range edges {
		i, j := e[0], e[1]
		if relabel != nil {
			i, j = relabel[i], relabel[j]
		}
		c.Add(i, j, -1)
	}
	m, err := c.ToSym()
	if err != nil {
		panic(err)
	}
	return m
}

func clique(first, size int) (edges [][2]int) {
	for i := first; i < first+size; i++ {
		for j := i + 1; j < first+size; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return edges
}

func path(first, size int) (edges [][2]int) {
	for i := first; i+1 < first+size; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edges
}

// randomPattern is a seeded sparse symmetric pattern: n in [1,300], about
// deg/2 random edges per vertex, so the 200 of them range from forests of
// isolated vertices to one dense-ish component.
func randomPattern(seed int64) *matrix.SparseSym {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(300)
	deg := rng.Intn(7)
	var edges [][2]int
	for k := 0; k < n*deg/2; k++ {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			edges = append(edges, [2]int{i, j})
		}
	}
	return fromEdges(n, edges, nil)
}

type namedMatrix struct {
	name string
	m    *matrix.SparseSym
}

// oracleInputs is every generator of internal/gen at two sizes × three
// seeds, then the adversarial graphs.
func oracleInputs() []namedMatrix {
	var in []namedMatrix
	add := func(name string, m *matrix.SparseSym) { in = append(in, namedMatrix{name, m}) }
	add("laplace2d/30x30", gen.Laplace2D(30, 30))
	add("laplace2d/57x41", gen.Laplace2D(57, 41))
	add("laplace3d/8x8x8", gen.Laplace3D(8, 8, 8))
	add("laplace3d/12x10x9", gen.Laplace3D(12, 10, 9))
	for seed := int64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("flan/4x4x4/%d", seed), gen.Flan3D(4, 4, 4, seed))
		add(fmt.Sprintf("flan/6x5x4/%d", seed), gen.Flan3D(6, 5, 4, seed))
		add(fmt.Sprintf("bone/8x8x8/%d", seed), gen.Bone3D(8, 8, 8, 0.3, seed))
		add(fmt.Sprintf("bone/12x12x10/%d", seed), gen.Bone3D(12, 12, 10, 0.35, seed))
		add(fmt.Sprintf("thermal/60x60/%d", seed), gen.Thermal2D(60, 60, 4, seed))
		add(fmt.Sprintf("thermal/100x90/%d", seed), gen.Thermal2D(100, 90, 8, seed))
		add(fmt.Sprintf("random/120/%d", seed), gen.RandomSPD(120, 0.03, seed))
		add(fmt.Sprintf("random/400/%d", seed), gen.RandomSPD(400, 0.01, seed))
	}

	add("n=1", gen.Laplace2D(1, 1))
	add("diagonal", fromEdges(70, nil, nil))
	add("path", gen.Laplace2D(200, 1))
	var star [][2]int
	for v := 1; v < 100; v++ {
		star = append(star, [2]int{0, v})
	}
	add("star", fromEdges(100, star, nil))
	// Above ndLeafSize and impossible to bisect: minimum degree fallback.
	add("K60", gen.RandomSPD(60, 1.0, 1))
	add("two cliques and a bridge", fromEdges(80, append(append(clique(0, 40), clique(40, 40)...), [2]int{39, 40}), nil))
	// A path, a clique, a grid-free tail of isolated vertices and a big
	// clique, under a random renaming: components interleave by vertex id.
	mix := append(append(path(0, 70), clique(70, 10)...), clique(100, 55)...)
	add("disconnected mix", fromEdges(160, mix, rand.New(rand.NewSource(5)).Perm(160)))
	// Diameter 2: the level structure is too shallow to cut, greedyBisect.
	for seed := int64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("depth-2/%d", seed), gen.RandomSPD(100, 0.5, seed))
	}
	for seed := int64(1); seed <= 200; seed++ {
		add(fmt.Sprintf("pattern/%d", seed), randomPattern(seed))
	}
	return in
}

// The in-place ordering code returns, for every kind and every input, the
// permutation the copying code returned.
func TestOrderingMatchesOracle(t *testing.T) {
	for _, in := range oracleInputs() {
		g := graph.FromSparse(in.m)
		for _, k := range allKinds() {
			got, err := Compute(k, in.m)
			if err != nil {
				t.Fatalf("%s/%v: %v", in.name, k, err)
			}
			want := oracleCompute(k, g)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: length %d, oracle %d", in.name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%v: perm[%d] = %d, oracle %d", in.name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// bisect agrees with the oracle's bisect on every connected piece, and what
// it marks is a separator: A, B and the separator partition the piece, each
// part ascending, and no edge joins A to B.
func TestBisectSeparatorProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		g := graph.FromSparse(randomPattern(seed))
		d := newDissector(g)
		d.next += int32(g.Components(d.ws, d.verts, d.label, 0, d.next))
		for lo := 0; lo < g.N; {
			cur := d.label[d.verts[lo]]
			hi := lo + 1
			for hi < g.N && d.label[d.verts[hi]] == cur {
				hi++
			}
			vs := d.verts[lo:hi]
			lo = hi
			input := append([]int32(nil), vs...)
			wantSep, wantA, wantB := oracleBisect(g, input)

			na, nb := d.bisect(vs, cur)
			for _, v := range vs {
				if d.side[v] != sideA {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if d.label[w] == cur && d.side[w] == sideB {
						t.Fatalf("seed %d: edge (%d,%d) joins A to B", seed, v, w)
					}
				}
			}
			la, lb := d.partition(vs, na, nb)
			parts := [3][]int32{vs[:na], vs[na : na+nb], vs[na+nb:]}
			for i, want := range [3][]int32{wantA, wantB, wantSep} {
				if len(parts[i]) != len(want) {
					t.Fatalf("seed %d: part %d has %d vertices, oracle %d", seed, i, len(parts[i]), len(want))
				}
				for j, v := range want {
					if parts[i][j] != v {
						t.Fatalf("seed %d: part %d differs from the oracle at %d", seed, i, j)
					}
					if j > 0 && want[j-1] >= v {
						t.Fatalf("seed %d: part %d not ascending", seed, i)
					}
					if wantL := [3]int32{la, lb, cur}[i]; d.label[v] != wantL {
						t.Fatalf("seed %d: label[%d] = %d, want %d", seed, v, d.label[v], wantL)
					}
				}
			}
			seen := map[int32]bool{}
			for _, v := range vs {
				seen[v] = true
			}
			if len(seen) != len(input) {
				t.Fatalf("seed %d: partition lost vertices", seed)
			}
			for _, v := range input {
				if !seen[v] {
					t.Fatalf("seed %d: vertex %d missing after partition", seed, v)
				}
			}
		}
	}
}

// diagonal is diag(1..1): n components of one vertex.
func diagonal(n int) *matrix.SparseSym {
	m := &matrix.SparseSym{N: n, ColPtr: make([]int32, n+1), RowInd: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.ColPtr[i+1], m.RowInd[i], m.Val[i] = int32(i+1), int32(i), 1
	}
	return m
}

// RCM used to allocate and fill an N-long array per connected component:
// 4·n² bytes, 10 GB, on diag(50 000). It is linear now, which shows in what
// it allocates whatever the host's speed.
func TestRCMLinearInComponents(t *testing.T) {
	const n = 50000
	a := diagonal(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	perm, err := Compute(RCM, a)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(perm, n); err != nil {
		t.Fatal(err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 64*n {
		t.Fatalf("Compute(RCM, diag(%d)) allocated %d bytes, want ≤ %d", n, got, 64*n)
	}
}
