package des

import (
	"testing"

	"sympack/internal/gen"
	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/matrix"
	"sympack/internal/ordering"
	"sympack/internal/symbolic"
)

func analyzed(t *testing.T, m *matrix.SparseSym) (*symbolic.Structure, *symbolic.TaskGraph) {
	t.Helper()
	st, _, err := symbolic.Analyze(m, ordering.NestedDissection, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st, symbolic.BuildTaskGraph(st)
}

func simOne(t *testing.T, st *symbolic.Structure, tg *symbolic.TaskGraph, cfg Config) Result {
	t.Helper()
	res, err := Simulate(st, tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FactorSeconds <= 0 || res.SolveSeconds <= 0 {
		t.Fatalf("non-positive times: %+v", res)
	}
	return res
}

// baseCfg models the paper's experiments, so it names the paper's 2D
// block-cyclic map rather than the zero value's subtree map.
func baseCfg(solver Solver, nodes, rpn int) Config {
	return Config{
		Solver: solver, Nodes: nodes, RanksPerNode: rpn, GPUsPerNode: 4,
		Machine: machine.Perlmutter(), Thresholds: gpu.DefaultThresholds(),
		Mapping: symbolic.Map2DCyclic,
	}
}

func TestSimulateBothSolvers(t *testing.T) {
	st, tg := analyzed(t, gen.Laplace3D(8, 8, 8))
	for _, s := range []Solver{SymPACK, Baseline} {
		for _, nodes := range []int{1, 2, 4} {
			res := simOne(t, st, tg, baseCfg(s, nodes, 4))
			if res.Tasks == 0 {
				t.Fatalf("%v: no tasks", s)
			}
		}
	}
}

// The headline result: symPACK must beat the baseline at every node count
// (paper Figs. 7–12 show this for all three matrices).
func TestSymPACKBeatsBaseline(t *testing.T) {
	mats := map[string]*matrix.SparseSym{
		"flan-like":    gen.Flan3D(6, 6, 6, 1),
		"bone-like":    gen.Bone3D(14, 14, 14, 0.35, 2),
		"thermal-like": gen.Thermal2D(64, 64, 6, 3),
	}
	for name, m := range mats {
		st, tg := analyzed(t, m)
		for _, nodes := range []int{1, 4, 16} {
			sp := simOne(t, st, tg, baseCfg(SymPACK, nodes, 4))
			bl := simOne(t, st, tg, baseCfg(Baseline, nodes, 4))
			if sp.FactorSeconds >= bl.FactorSeconds {
				t.Fatalf("%s nodes=%d: symPACK factor %.4gs not better than baseline %.4gs",
					name, nodes, sp.FactorSeconds, bl.FactorSeconds)
			}
			if sp.SolveSeconds >= bl.SolveSeconds {
				t.Fatalf("%s nodes=%d: symPACK solve %.4gs not better than baseline %.4gs",
					name, nodes, sp.SolveSeconds, bl.SolveSeconds)
			}
		}
	}
}

// Strong scaling: more nodes must help (or at least not catastrophically
// hurt) symPACK factorization on a problem with enough work.
func TestSymPACKStrongScales(t *testing.T) {
	st, tg := analyzed(t, gen.Flan3D(6, 6, 6, 1))
	t1 := simOne(t, st, tg, baseCfg(SymPACK, 1, 4)).FactorSeconds
	t4 := simOne(t, st, tg, baseCfg(SymPACK, 4, 4)).FactorSeconds
	if t4 >= t1 {
		t.Fatalf("4 nodes (%.4gs) not faster than 1 node (%.4gs)", t4, t1)
	}
}

// GPU offload must speed up the factorization of a dense-supernode problem.
func TestGPUSpeedsUpFactorization(t *testing.T) {
	st, tg := analyzed(t, gen.Flan3D(8, 8, 8, 1))
	cfgGPU := baseCfg(SymPACK, 1, 4)
	cfgCPU := cfgGPU
	cfgCPU.GPUsPerNode = 0
	gpuT := simOne(t, st, tg, cfgGPU)
	cpuT := simOne(t, st, tg, cfgCPU)
	if gpuT.FactorSeconds >= cpuT.FactorSeconds {
		t.Fatalf("GPU run (%.4gs) not faster than CPU run (%.4gs)", gpuT.FactorSeconds, cpuT.FactorSeconds)
	}
	if gpuT.GPUTaskShare <= 0 {
		t.Fatal("no tasks offloaded")
	}
	if cpuT.GPUTaskShare != 0 {
		t.Fatal("CPU run reported offloaded tasks")
	}
	// Most tasks stay on the CPU (Fig. 6's shape).
	if gpuT.GPUTaskShare > 0.5 {
		t.Fatalf("offload share %.2f implausibly high", gpuT.GPUTaskShare)
	}
}

// On the thermal problem (deep, thin structure — paper Fig. 12) the
// baseline's solve must stop scaling long before symPACK's: its
// improvement from 4 to 16 nodes must be small while symPACK keeps
// winning in absolute terms at every node count.
func TestBaselineSolveStagnatesOnThermal(t *testing.T) {
	st, tg := analyzed(t, gen.Thermal2D(96, 96, 6, 3))
	for _, nodes := range []int{1, 4, 16} {
		sp := simOne(t, st, tg, baseCfg(SymPACK, nodes, 4)).SolveSeconds
		bl := simOne(t, st, tg, baseCfg(Baseline, nodes, 4)).SolveSeconds
		if sp >= bl {
			t.Fatalf("nodes=%d: symPACK solve %.4gs not better than baseline %.4gs", nodes, sp, bl)
		}
	}
	// The baseline may show steeper *relative* scaling (the paper explains
	// this is an artifact of its much worse single-node time, §5.3); what
	// must hold is that its advantage never materializes in absolute terms
	// and that its single-node handicap is substantial.
	sp1 := simOne(t, st, tg, baseCfg(SymPACK, 1, 4)).SolveSeconds
	bl1 := simOne(t, st, tg, baseCfg(Baseline, 1, 4)).SolveSeconds
	if bl1 < 1.5*sp1 {
		t.Fatalf("baseline single-node solve handicap too small: %.4gs vs %.4gs", bl1, sp1)
	}
}

func TestCommBytesGrowWithRanks(t *testing.T) {
	st, tg := analyzed(t, gen.Laplace3D(7, 7, 7))
	one := simOne(t, st, tg, baseCfg(SymPACK, 1, 1))
	many := simOne(t, st, tg, baseCfg(SymPACK, 4, 4))
	if one.CommBytes != 0 {
		t.Fatalf("single rank moved %d bytes over the wire", one.CommBytes)
	}
	if many.CommBytes == 0 {
		t.Fatal("multi-rank run moved no bytes")
	}
}

func TestSimulateValidation(t *testing.T) {
	st, tg := analyzed(t, gen.Laplace2D(6, 6))
	if _, err := Simulate(st, tg, Config{Solver: SymPACK, Nodes: 0, RanksPerNode: 4}); err == nil {
		t.Fatal("expected layout error")
	}
	if _, err := Simulate(st, tg, Config{Solver: Solver(9), Nodes: 1, RanksPerNode: 1}); err == nil {
		t.Fatal("expected solver error")
	}
}

func TestStrongScalingSweep(t *testing.T) {
	st, tg := analyzed(t, gen.Laplace3D(6, 6, 6))
	sc := DefaultSweep(SymPACK)
	sc.NodeCounts = []int{1, 2, 4}
	sc.RPNChoices = []int{2, 4}
	pts, err := StrongScaling(st, tg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.FactorSeconds <= 0 || pt.SolveSeconds <= 0 {
			t.Fatalf("bad point %+v", pt)
		}
		found := false
		for _, rpn := range sc.RPNChoices {
			if pt.BestFactorRPN == rpn {
				found = true
			}
		}
		if !found {
			t.Fatalf("best RPN %d not among choices", pt.BestFactorRPN)
		}
	}
}

// Determinism: the DES is a pure function of its inputs.
func TestSimulateDeterministic(t *testing.T) {
	st, tg := analyzed(t, gen.Bone3D(8, 8, 8, 0.3, 1))
	a := simOne(t, st, tg, baseCfg(SymPACK, 4, 4))
	// Rebuild the task graph to guard against accidental mutation of tg.
	tg2 := symbolic.BuildTaskGraph(st)
	b := simOne(t, st, tg2, baseCfg(SymPACK, 4, 4))
	if a.FactorSeconds != b.FactorSeconds || a.SolveSeconds != b.SolveSeconds {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSolverString(t *testing.T) {
	if SymPACK.String() == "" || Baseline.String() == "" {
		t.Fatal("solver names")
	}
}
