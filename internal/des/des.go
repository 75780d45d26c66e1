// Package des is the strong-scaling engine behind the paper's Figures
// 7–12: it replays the *real* task graph of the *real* symbolic
// factorization through a discrete-event simulation of a multi-node GPU
// machine, producing factorization and solve times for both symPACK's
// fan-out algorithm and the PaStiX-like right-looking baseline.
//
// The two solvers differ exactly where the paper says they differ:
//
//   - symPACK: block-granular tasks, 2D block-cyclic mapping, dynamic
//     list scheduling, one-sided notifications, GDR (native memory kinds)
//     transfers straight into device memory with device-side operand
//     caching, per-op offload thresholds, a lightweight task queue.
//   - baseline: panel tasks (POTRF + whole-panel TRSM on the CPU, as in
//     PaStiX's GEMM-only CUDA support), block-granular update tasks under a
//     1D cyclic column-block mapping, two-sided rendezvous messages,
//     per-operation host-staged device copies without operand caching, and
//     StarPU's heavier per-task runtime overhead.
//
// Absolute seconds come from the machine model (internal/machine); the
// figure *shapes* — who wins, by what factor, where curves flatten or
// degrade — come from the DAG and the mapping, which are real.
package des

import (
	"container/heap"
	"fmt"

	"sympack/internal/gpu"
	"sympack/internal/machine"
	"sympack/internal/simnet"
	"sympack/internal/symbolic"
)

// Solver selects the personality being simulated.
type Solver uint8

const (
	SymPACK Solver = iota
	Baseline
)

func (s Solver) String() string {
	if s == SymPACK {
		return "symPACK"
	}
	return "PaStiX-like"
}

// Config describes one simulated run.
type Config struct {
	Solver       Solver
	Nodes        int
	RanksPerNode int
	GPUsPerNode  int // 0 disables offload
	Machine      machine.Machine
	Thresholds   gpu.Thresholds
	// Formulation selects the task formulation the symPACK personality
	// models (fan-out / fan-in / fan-both): where update flops execute and
	// whether computed contributions travel to the target's owner. Mirrors
	// core.Options.Formulation, so a variant simulates exactly what it
	// runs.
	Formulation symbolic.Formulation
	// Mapping selects the block→process distribution (2D block-cyclic /
	// 1D columns / proportional subtree). Mirrors core.Options.Mapping.
	Mapping symbolic.MappingKind
	// ModelNICContention serializes each node's outbound transfers
	// through its NICs (Perlmutter has four per node) instead of treating
	// the fabric as infinitely parallel. Off by default: the paper's
	// flat-MPI runs rarely saturate the NICs, and the uncontended model
	// is what the calibrated figures use; turn it on to study
	// communication-bound configurations.
	ModelNICContention bool
}

// Ranks returns the total process count.
func (c *Config) Ranks() int { return c.Nodes * c.RanksPerNode }

// blockMap resolves the configured block distribution.
func (c *Config) blockMap(st *symbolic.Structure) symbolic.BlockMap {
	return symbolic.NewBlockMap(c.Mapping, c.Ranks(), st)
}

// Result reports the modeled times of one run.
type Result struct {
	Config        Config
	FactorSeconds float64
	SolveSeconds  float64
	Tasks         int
	CommBytes     int64
	GPUTaskShare  float64 // fraction of tasks offloaded
}

// ---------------------------------------------------------- scheduling ----

type edge struct {
	to    int32
	bytes int64
	path  simnet.Path
}

type simTask struct {
	owner  int32
	device int32 // -1 = CPU task
	cost   float64
	indeg  int32
	ready  float64
	prio   float64 // bottom level: longest downstream cost-path
	succ   []edge
}

// computePriorities assigns each task its "bottom level" — the longest
// compute path from the task to any sink — the classic list-scheduling
// priority. Both solver personalities are scheduled with it.
func computePriorities(tasks []simTask) {
	n := len(tasks)
	// Reverse-topological traversal via Kahn on successor counts.
	outdeg := make([]int32, n)
	preds := make([][]int32, n)
	for i := range tasks {
		outdeg[i] = int32(len(tasks[i].succ))
		for _, e := range tasks[i].succ {
			preds[e.to] = append(preds[e.to], int32(i))
		}
	}
	stack := make([]int32, 0, n)
	for i := range tasks {
		if outdeg[i] == 0 {
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		best := 0.0
		for _, e := range tasks[t].succ {
			if p := tasks[e.to].prio; p > best {
				best = p
			}
		}
		tasks[t].prio = tasks[t].cost + best
		for _, p := range preds[t] {
			outdeg[p]--
			if outdeg[p] == 0 {
				stack = append(stack, p)
			}
		}
	}
}

// sched runs event-driven list scheduling of the task set over ranks and
// devices, returning the makespan. Each task starts at
// max(rank available, task ready[, device available]) on its owner;
// completions propagate along edges with the modeled transfer time added
// when the endpoint owners differ.
type sched struct {
	tasks  []simTask
	net    *simnet.Network
	ranks  int
	rpn    int
	rankAt []float64
	devAt  []float64
	// nicAt, when non-nil, holds each node's NIC-availability time
	// (aggregate across its NICs); cross-node sends serialize through it.
	nicAt []float64
	nicBW float64
	// Two-level ready queues per rank: waitQs orders not-yet-ready tasks
	// by ready time; runQs orders currently-runnable tasks by priority
	// (bottom level, descending). When a rank picks work it drains waitQ
	// entries whose ready time has passed into runQ and takes the highest
	// priority — standard list scheduling.
	waitQs  []taskHeap
	runQs   []prioHeap
	cand    candHeap
	candVer []int64 // stale-entry invalidation: only the latest per rank counts
	bytes   int64
}

func newSched(tasks []simTask, net *simnet.Network, ranks, rpn, devices int) *sched {
	computePriorities(tasks)
	s := &sched{
		tasks:   tasks,
		net:     net,
		ranks:   ranks,
		rpn:     rpn,
		rankAt:  make([]float64, ranks),
		devAt:   make([]float64, max(devices, 1)),
		waitQs:  make([]taskHeap, ranks),
		runQs:   make([]prioHeap, ranks),
		candVer: make([]int64, ranks),
	}
	for i := range tasks {
		if tasks[i].indeg == 0 {
			s.enqueue(int32(i))
		}
	}
	return s
}

func (s *sched) enqueue(t int32) {
	owner := s.tasks[t].owner
	heap.Push(&s.waitQs[owner], readyEntry{ready: s.tasks[t].ready, task: t})
	s.pushCand(owner)
}

// drain moves every task whose ready time has passed `now` from the
// rank's wait queue into its priority run queue.
func (s *sched) drain(rank int32, now float64) {
	wq := &s.waitQs[rank]
	for wq.Len() > 0 && (*wq)[0].ready <= now {
		re := heap.Pop(wq).(readyEntry)
		heap.Push(&s.runQs[rank], prioEntry{prio: s.tasks[re.task].prio, task: re.task})
	}
}

// nextStart returns the earliest time the rank could begin a task.
func (s *sched) nextStart(rank int32) (float64, bool) {
	s.drain(rank, s.rankAt[rank])
	if s.runQs[rank].Len() > 0 {
		return s.rankAt[rank], true
	}
	if s.waitQs[rank].Len() > 0 {
		return s.waitQs[rank][0].ready, true
	}
	return 0, false
}

// pushCand (re)registers a rank's earliest possible next start,
// invalidating any earlier candidate entries for the rank.
func (s *sched) pushCand(rank int32) {
	s.candVer[rank]++
	start, ok := s.nextStart(rank)
	if !ok {
		return
	}
	heap.Push(&s.cand, candEntry{start: start, rank: rank, ver: s.candVer[rank]})
}

func (s *sched) run() float64 {
	makespan := 0.0
	for s.cand.Len() > 0 {
		ce := heap.Pop(&s.cand).(candEntry)
		if ce.ver != s.candVer[ce.rank] {
			continue // superseded by a fresher candidate
		}
		start, ok := s.nextStart(ce.rank)
		if !ok {
			continue
		}
		// Everything runnable at the start instant competes on priority.
		s.drain(ce.rank, start)
		if s.runQs[ce.rank].Len() == 0 {
			continue
		}
		pe := heap.Pop(&s.runQs[ce.rank]).(prioEntry)
		t := &s.tasks[pe.task]
		if t.device >= 0 && s.devAt[t.device] > start {
			start = s.devAt[t.device]
		}
		finish := start + t.cost
		s.rankAt[ce.rank] = finish
		if t.device >= 0 {
			s.devAt[t.device] = finish
		}
		if finish > makespan {
			makespan = finish
		}
		for _, e := range t.succ {
			st := &s.tasks[e.to]
			arrive := finish
			if e.bytes > 0 && st.owner != t.owner {
				sameNode := int(st.owner)/s.rpn == int(t.owner)/s.rpn
				sendAt := finish
				if s.nicAt != nil && !sameNode {
					// The message waits for a free NIC slot on the source
					// node, then occupies it for its wire time.
					node := int(t.owner) / s.rpn
					if s.nicAt[node] > sendAt {
						sendAt = s.nicAt[node]
					}
					s.nicAt[node] = sendAt + float64(e.bytes)/s.nicBW
				}
				arrive = sendAt + s.net.Time(e.path, e.bytes, sameNode)
				s.bytes += e.bytes
			}
			if arrive > st.ready {
				st.ready = arrive
			}
			st.indeg--
			if st.indeg == 0 {
				s.enqueue(e.to)
			}
		}
		s.pushCand(ce.rank)
	}
	return makespan
}

type readyEntry struct {
	ready float64
	task  int32
}

type taskHeap []readyEntry

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].ready < h[j].ready }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(readyEntry)) }
func (h *taskHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type prioEntry struct {
	prio float64
	task int32
}

// prioHeap is a max-heap on bottom-level priority.
type prioHeap []prioEntry

func (h prioHeap) Len() int           { return len(h) }
func (h prioHeap) Less(i, j int) bool { return h[i].prio > h[j].prio }
func (h prioHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x any)        { *h = append(*h, x.(prioEntry)) }
func (h *prioHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type candEntry struct {
	start float64
	rank  int32
	ver   int64
}

type candHeap []candEntry

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return h[i].start < h[j].start }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(candEntry)) }
func (h *candHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// ------------------------------------------------------------ Simulate ----

// Simulate models a complete factorization + triangular solve run.
func Simulate(st *symbolic.Structure, tg *symbolic.TaskGraph, cfg Config) (Result, error) {
	if cfg.Nodes < 1 || cfg.RanksPerNode < 1 {
		return Result{}, fmt.Errorf("des: bad layout %d nodes × %d rpn", cfg.Nodes, cfg.RanksPerNode)
	}
	net := simnet.New(cfg.Machine)
	var factor, solve float64
	var r Result
	switch cfg.Solver {
	case SymPACK:
		tasks, gpuShare := buildSymPACKFactorDAG(st, tg, &cfg)
		s := newSched(tasks, net, cfg.Ranks(), cfg.RanksPerNode, cfg.Nodes*max(cfg.GPUsPerNode, 1))
		s.enableNICContention(&cfg)
		factor = s.run()
		r.Tasks = len(tasks)
		r.CommBytes = s.bytes
		r.GPUTaskShare = gpuShare
		solve = simulateSolve(st, &cfg, net, false)
	case Baseline:
		tasks, gpuShare := buildBaselineFactorDAG(st, tg, &cfg)
		s := newSched(tasks, net, cfg.Ranks(), cfg.RanksPerNode, cfg.Nodes*max(cfg.GPUsPerNode, 1))
		s.enableNICContention(&cfg)
		factor = s.run()
		r.Tasks = len(tasks)
		r.CommBytes = s.bytes
		r.GPUTaskShare = gpuShare
		solve = simulateSolve(st, &cfg, net, true)
	default:
		return Result{}, fmt.Errorf("des: unknown solver %d", cfg.Solver)
	}
	r.Config = cfg
	r.FactorSeconds = factor
	r.SolveSeconds = solve
	return r, nil
}

// enableNICContention arms the per-node NIC occupancy model.
func (s *sched) enableNICContention(cfg *Config) {
	if !cfg.ModelNICContention {
		return
	}
	nodes := (s.ranks + s.rpn - 1) / s.rpn
	s.nicAt = make([]float64, nodes)
	s.nicBW = cfg.Machine.NICBandwidth * float64(max(cfg.Machine.NICsPerNode, 1))
}

// Per-task runtime overhead of the two software stacks. symPACK's LTQ/RTQ
// scheduling is a couple of queue operations plus a dependency-counter
// decrement; PaStiX rides StarPU, whose dynamic scheduler, data-handle
// management and MPI progress engine cost an order of magnitude more per
// task (StarPU's own documentation puts per-task management in the
// microseconds; with MPI in the loop it is worse). This node-local overhead
// is a major part of why the paper's single-node gap exists at all.
const (
	symPACKTaskOverhead  = 1.0e-6
	baselineTaskOverhead = 12e-6
)

// deviceOf maps a rank to its bound device index (paper §4.2 binding).
func deviceOf(cfg *Config, rank int) int32 {
	if cfg.GPUsPerNode <= 0 {
		return -1
	}
	node := rank / cfg.RanksPerNode
	local := rank % cfg.RanksPerNode
	return int32(node*cfg.GPUsPerNode + local%cfg.GPUsPerNode)
}

// scatterCost models the memory-bound scatter-add of an update result.
func scatterCost(elems int) float64 { return float64(16*elems) / 30e9 }
