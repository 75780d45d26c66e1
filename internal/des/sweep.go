package des

import (
	"sync"

	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/symbolic"
)

// ScalingPoint is one x-position of a strong-scaling figure: the best time
// achieved at a node count across the ranks-per-node choices tried, which
// is exactly how the paper reports its data points (§5.3: "the result from
// the run that yielded the best performance for a given node count").
type ScalingPoint struct {
	Nodes         int
	FactorSeconds float64
	SolveSeconds  float64
	BestFactorRPN int
	BestSolveRPN  int
}

// SweepConfig parameterizes a strong-scaling sweep.
type SweepConfig struct {
	Solver      Solver
	NodeCounts  []int
	RPNChoices  []int // ranks-per-node values to try (best is reported)
	GPUsPerNode int
	Machine     machine.Machine
	Thresholds  gpu.Thresholds
	// Formulation and Mapping select the scheduling variant the symPACK
	// personality sweeps (zero values: fan-out on the subtree map;
	// DefaultSweep names the paper's 2D cyclic map).
	Formulation symbolic.Formulation
	Mapping     symbolic.MappingKind
}

// DefaultSweep mirrors the paper's experiment grid: 1–64 Perlmutter GPU
// nodes, four GPUs each, several processes-per-node configurations.
func DefaultSweep(s Solver) SweepConfig {
	return SweepConfig{
		Solver:      s,
		NodeCounts:  []int{1, 2, 4, 8, 16, 32, 64},
		RPNChoices:  []int{4, 8, 16},
		GPUsPerNode: 4,
		Machine:     machine.Perlmutter(),
		Thresholds:  gpu.DefaultThresholds(),
		Mapping:     symbolic.Map2DCyclic,
	}
}

// StrongScaling runs the sweep over one analyzed problem, returning one
// point per node count. Simulations are independent pure functions, so the
// grid runs concurrently across the host's cores.
func StrongScaling(st *symbolic.Structure, tg *symbolic.TaskGraph, sc SweepConfig) ([]ScalingPoint, error) {
	points := make([]ScalingPoint, len(sc.NodeCounts))
	var wg sync.WaitGroup
	errs := make([]error, len(sc.NodeCounts))
	for pi, nodes := range sc.NodeCounts {
		wg.Add(1)
		go func(pi, nodes int) {
			defer wg.Done()
			pt := ScalingPoint{Nodes: nodes, FactorSeconds: -1, SolveSeconds: -1}
			for _, rpn := range sc.RPNChoices {
				res, err := Simulate(st, tg, Config{
					Solver:       sc.Solver,
					Nodes:        nodes,
					RanksPerNode: rpn,
					GPUsPerNode:  sc.GPUsPerNode,
					Machine:      sc.Machine,
					Thresholds:   sc.Thresholds,
					Formulation:  sc.Formulation,
					Mapping:      sc.Mapping,
				})
				if err != nil {
					errs[pi] = err
					return
				}
				if pt.FactorSeconds < 0 || res.FactorSeconds < pt.FactorSeconds {
					pt.FactorSeconds = res.FactorSeconds
					pt.BestFactorRPN = rpn
				}
				if pt.SolveSeconds < 0 || res.SolveSeconds < pt.SolveSeconds {
					pt.SolveSeconds = res.SolveSeconds
					pt.BestSolveRPN = rpn
				}
			}
			points[pi] = pt
		}(pi, nodes)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}
