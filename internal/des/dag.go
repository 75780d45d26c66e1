package des

import (
	"sort"

	"sympack/internal/machine"
	"sympack/internal/simnet"
	"sympack/internal/symbolic"
)

// bytesOf returns the wire size of a dense m×n block.
func bytesOf(m, n int) int64 { return int64(m) * int64(n) * 8 }

// ------------------------------------------------------ symPACK factor ----

// buildSymPACKFactorDAG lowers the block task graph (D/F/U of §3.2) to sim
// tasks with the fan-out communication pattern: per-block messages, 2D
// block-cyclic owners, GDR device transfers for offload-bound diagonal
// blocks, per-op thresholds. It returns the tasks and the offloaded-task
// fraction.
func buildSymPACKFactorDAG(st *symbolic.Structure, tg *symbolic.TaskGraph, cfg *Config) ([]simTask, float64) {
	m := &cfg.Machine
	m2d := cfg.blockMap(st)
	nsn := st.NumSupernodes()
	useGPU := cfg.GPUsPerNode > 0

	// Task ids: D_k = k; F_b = nsn + offIdx[b]; U_u = nsn + nOff + u.
	offIdx := make([]int32, len(st.Blocks))
	nOff := int32(0)
	for bi := range st.Blocks {
		if !st.Blocks[bi].IsDiag() {
			offIdx[bi] = nOff
			nOff++
		} else {
			offIdx[bi] = -1
		}
	}
	fTask := func(bid int32) int32 { return int32(nsn) + offIdx[bid] }
	uBase := int32(nsn) + nOff
	tasks := make([]simTask, int(uBase)+len(tg.Updates))
	gpuTasks := 0

	// blockTask returns the task computing a block's final factor value.
	blockTask := func(bid int32) int32 {
		b := &st.Blocks[bid]
		if b.IsDiag() {
			return int32(b.Snode)
		}
		return fTask(bid)
	}

	offFns := [2]func(op machine.Op, elems int) bool{
		func(machine.Op, int) bool { return false },
		cfg.Thresholds.ShouldOffload,
	}
	offload := offFns[0]
	if useGPU {
		offload = offFns[1]
	}

	devicePath := func() simnet.Path {
		if m.GDR {
			return simnet.PathGDR
		}
		return simnet.PathStaged
	}

	// D tasks.
	for k := 0; k < nsn; k++ {
		sn := &st.Snodes[k]
		nc := sn.NCols()
		diag := st.DiagBlock(int32(k))
		owner := int32(symbolic.OwnerOfBlock(m2d, diag))
		fl := machine.KernelFlops(machine.OpPotrf, 0, nc, 0)
		t := &tasks[k]
		t.owner = owner
		t.device = -1
		t.indeg = tg.InUpdates[diag.ID]
		if offload(machine.OpPotrf, nc*nc) {
			t.device = deviceOf(cfg, int(owner))
			t.cost = m.GPUTime(fl) + 2*m.HostDeviceCopyTime(bytesOf(nc, nc))
			gpuTasks++
		} else {
			t.cost = m.CPUTime(fl)
		}
		t.cost += symPACKTaskOverhead
	}
	// F tasks + D→F edges.
	for bi := range st.Blocks {
		b := &st.Blocks[bi]
		if b.IsDiag() {
			continue
		}
		nc := st.Snodes[b.Snode].NCols()
		mRows := int(b.NRows)
		owner := int32(symbolic.OwnerOfBlock(m2d, b))
		id := fTask(b.ID)
		t := &tasks[id]
		t.owner = owner
		t.device = -1
		t.indeg = tg.InUpdates[b.ID] + 1
		fl := machine.KernelFlops(machine.OpTrsm, mRows, nc, 0)
		diagEdgePath := simnet.PathHostHost
		if offload(machine.OpTrsm, mRows*nc) {
			t.device = deviceOf(cfg, int(owner))
			// The diagonal operand arrives device-direct (the paper's
			// GPU-blocks optimization), so only the panel block stages.
			t.cost = m.GPUTime(fl) + 2*m.HostDeviceCopyTime(bytesOf(mRows, nc))
			diagEdgePath = devicePath()
			gpuTasks++
		} else {
			t.cost = m.CPUTime(fl)
		}
		t.cost += symPACKTaskOverhead
		dk := int32(b.Snode)
		tasks[dk].succ = append(tasks[dk].succ, edge{to: id, bytes: bytesOf(nc, nc), path: diagEdgePath})
	}
	// U tasks + F→U and U→target edges. A fetched source block is cached
	// in device memory by its consumer, so its host→device copy is charged
	// only on first use per (block, rank) — matching the engine's fetched-
	// block cache.
	type blockRank struct {
		bid  int32
		rank int32
	}
	staged := map[blockRank]bool{}
	stageIn := func(bid, rank int32, bytes int64) float64 {
		key := blockRank{bid, rank}
		if staged[key] {
			return 0
		}
		staged[key] = true
		return m.HostDeviceCopyTime(bytes)
	}
	for ui := range tg.Updates {
		u := &tg.Updates[ui]
		id := uBase + int32(ui)
		ba := &st.Blocks[u.BlkA]
		bb := &st.Blocks[u.BlkB]
		w := st.Snodes[u.SrcSn].NCols()
		mB, nA := int(bb.NRows), int(ba.NRows)
		// The update executes at the owner of the formulation's compute
		// block: the target under fan-out, a source operand under
		// fan-in/fan-both — the same placement rule the real engine uses.
		owner := int32(symbolic.OwnerOfBlock(m2d, &st.Blocks[cfg.Formulation.ComputeBlock(u)]))
		t := &tasks[id]
		t.owner = owner
		t.device = -1
		var fl int64
		var op machine.Op
		if u.IsSyrk() {
			t.indeg = 1
			op = machine.OpSyrk
			fl = machine.KernelFlops(machine.OpSyrk, mB, w, 0)
		} else {
			t.indeg = 2
			op = machine.OpGemm
			fl = machine.KernelFlops(machine.OpGemm, mB, nA, w)
		}
		srcPath := simnet.PathHostHost
		if offload(op, mB*nA) {
			t.device = deviceOf(cfg, int(owner))
			in := stageIn(u.BlkB, owner, bytesOf(mB, w))
			if !u.IsSyrk() {
				in += stageIn(u.BlkA, owner, bytesOf(nA, w))
			}
			t.cost = m.GPUTime(fl) + in + m.HostDeviceCopyTime(bytesOf(mB, nA))
			// Operands destined for the device travel the memory-kinds
			// path: zero-copy under GDR, host-staged without it.
			srcPath = devicePath()
			gpuTasks++
		} else {
			t.cost = m.CPUTime(fl)
		}
		t.cost += scatterCost(mB*nA) + symPACKTaskOverhead
		// Source edges (fan-out messages, per-block).
		fa := fTask(u.BlkA)
		tasks[fa].succ = append(tasks[fa].succ, edge{to: id, bytes: bytesOf(nA, w), path: srcPath})
		if u.BlkB != u.BlkA {
			fb := fTask(u.BlkB)
			tasks[fb].succ = append(tasks[fb].succ, edge{to: id, bytes: bytesOf(mB, w), path: srcPath})
		}
		// Completion edge into the target's factor task: an in-place apply
		// under fan-out (same owner, nothing on the wire), a delivered
		// contribution message under fan-in/fan-both. The scheduler only
		// charges the bytes when the endpoint owners differ, so a compute
		// site that happens to be the target's owner delivers for free —
		// matching the engine. The scatter itself stays charged on the U
		// task (a modeling simplification; the apply is memory-bound and
		// rank-local either way).
		done := edge{to: blockTask(u.Target)}
		if cfg.Formulation.DeliversContributions() {
			done.bytes = bytesOf(mB, nA)
			done.path = simnet.PathHostHost
		}
		tasks[id].succ = append(tasks[id].succ, done)
	}
	return tasks, share(gpuTasks, len(tasks))
}

// ----------------------------------------------------- baseline factor ----

// buildBaselineFactorDAG lowers the factorization to the PaStiX-like
// right-looking shape: one panel task per supernode (POTRF plus the whole
// panel TRSM, CPU-only — PaStiX's CUDA support offloads update GEMMs, not
// the panel kernels), block-granular update tasks like the fan-out solver
// but owned under a 1D cyclic column-block distribution, two-sided
// rendezvous messages, per-operation host-staged device copies with no
// device-side operand caching, and StarPU's heavier per-task overhead.
func buildBaselineFactorDAG(st *symbolic.Structure, tg *symbolic.TaskGraph, cfg *Config) ([]simTask, float64) {
	m := &cfg.Machine
	p := cfg.Ranks()
	nsn := st.NumSupernodes()
	useGPU := cfg.GPUsPerNode > 0

	owner1D := func(sn int32) int32 { return sn % int32(p) }

	// Task ids: panel_k = k; U_u = nsn + u.
	tasks := make([]simTask, nsn+len(tg.Updates))
	gpuTasks := 0

	// Panel indegree = number of updates whose target lies in the panel's
	// supernode.
	for ui := range tg.Updates {
		tasks[st.Blocks[tg.Updates[ui].Target].Snode].indeg++
	}
	for k := 0; k < nsn; k++ {
		sn := &st.Snodes[k]
		nc, nr := sn.NCols(), sn.NRows()
		fl := machine.KernelFlops(machine.OpPotrf, 0, nc, 0) +
			machine.KernelFlops(machine.OpTrsm, nr-nc, nc, 0)
		t := &tasks[k]
		t.owner = owner1D(int32(k))
		t.device = -1
		t.cost = m.CPUTime(fl) + baselineTaskOverhead
	}
	for ui := range tg.Updates {
		u := &tg.Updates[ui]
		id := nsn + ui
		ba := &st.Blocks[u.BlkA]
		bb := &st.Blocks[u.BlkB]
		w := st.Snodes[u.SrcSn].NCols()
		mB, nA := int(bb.NRows), int(ba.NRows)
		tgtSn := st.Blocks[u.Target].Snode
		t := &tasks[id]
		t.owner = owner1D(tgtSn)
		t.device = -1
		t.indeg = 1
		var fl int64
		if u.IsSyrk() {
			fl = machine.KernelFlops(machine.OpSyrk, mB, w, 0)
		} else {
			fl = machine.KernelFlops(machine.OpGemm, mB, nA, w)
		}
		if useGPU && mB*nA >= cfg.Thresholds.Gemm {
			t.device = deviceOf(cfg, int(t.owner))
			// Staged, uncached copies: both operands and the result
			// cross PCIe on every task.
			in := bytesOf(mB, w)
			if !u.IsSyrk() {
				in += bytesOf(nA, w)
			}
			t.cost = m.GPUTime(fl) + m.HostDeviceCopyTime(in) + m.HostDeviceCopyTime(bytesOf(mB, nA))
			gpuTasks++
		} else {
			t.cost = m.CPUTime(fl)
		}
		t.cost += scatterCost(mB*nA) + baselineTaskOverhead
		// Rendezvous message from the source panel owner (one logical
		// panel broadcast; charged per consuming task at block size).
		srcBytes := bytesOf(mB, w)
		if !u.IsSyrk() {
			srcBytes += bytesOf(nA, w)
		}
		tasks[u.SrcSn].succ = append(tasks[u.SrcSn].succ,
			edge{to: int32(id), bytes: srcBytes, path: simnet.PathTwoSided})
		// Completion into the target panel.
		t.succ = append(t.succ, edge{to: tgtSn})
	}
	return tasks, share(gpuTasks, len(tasks))
}

// -------------------------------------------------------------- solves ----

// simulateSolve models the forward substitution DAG and doubles it for the
// symmetric backward pass. symPACK uses block-granular tasks on the 2D map
// with one-sided messages; the baseline uses supernode-granular tasks on
// the 1D map with rendezvous messages — the difference behind Fig. 12's
// divergence on deep, thin elimination trees.
func simulateSolve(st *symbolic.Structure, cfg *Config, net *simnet.Network, isBaseline bool) float64 {
	m := &cfg.Machine
	p := cfg.Ranks()
	nsn := st.NumSupernodes()

	var tasks []simTask
	if !isBaseline {
		m2d := symbolic.NewMap2D(p)
		// Tasks: S_k = k (diagonal solve), G_b = nsn + offIdx (panel
		// contribution). The RHS segments are distributed round-robin
		// over ranks rather than at the diagonal blocks' 2D owners: a 2D
		// block-cyclic map concentrates the (k,k) blocks on the grid
		// diagonal (only gcd-many distinct owners), which would serialize
		// the solve; distributing the vector 1D-cyclically is the
		// standard fix and matches how PGAS solvers distribute RHS data.
		offIdx := make([]int32, len(st.Blocks))
		nOff := int32(0)
		for bi := range st.Blocks {
			if !st.Blocks[bi].IsDiag() {
				offIdx[bi] = nOff
				nOff++
			}
		}
		tasks = make([]simTask, int32(nsn)+nOff)
		// indeg of S_k = number of blocks whose rows land in supernode k.
		for k := 0; k < nsn; k++ {
			sn := &st.Snodes[k]
			nc := sn.NCols()
			t := &tasks[k]
			t.owner = int32(k % p)
			t.device = -1
			t.cost = m.CPUTime(int64(nc)*int64(nc)) + symPACKTaskOverhead
		}
		for bi := range st.Blocks {
			b := &st.Blocks[bi]
			if b.IsDiag() {
				continue
			}
			tasks[b.RowSn].indeg++
			id := int32(nsn) + offIdx[bi]
			nc := st.Snodes[b.Snode].NCols()
			t := &tasks[id]
			t.owner = int32(symbolic.OwnerOfBlock(m2d, b))
			t.device = -1
			t.indeg = 1
			t.cost = m.CPUTime(2*int64(b.NRows)*int64(nc)) + symPACKTaskOverhead
			// S_snode → G_b carries the solved slice; G_b → S_RowSn
			// carries the contribution.
			tasks[b.Snode].succ = append(tasks[b.Snode].succ,
				edge{to: id, bytes: int64(nc) * 8, path: simnet.PathHostHost})
			t.succ = append(t.succ,
				edge{to: int32(b.RowSn), bytes: int64(b.NRows) * 8, path: simnet.PathHostHost})
		}
	} else {
		// Supernode-granular 1D solve: S_k does the diagonal solve plus
		// the entire panel gemv, then messages each target supernode.
		tasks = make([]simTask, nsn)
		type tgtSet map[int32]int64 // target → rows contributed
		targets := make([]tgtSet, nsn)
		for k := 0; k < nsn; k++ {
			sn := &st.Snodes[k]
			nc, nr := sn.NCols(), sn.NRows()
			t := &tasks[k]
			t.owner = int32(k % p)
			t.device = -1
			t.cost = m.CPUTime(int64(nc)*int64(nc)+2*int64(nr-nc)*int64(nc)) + baselineTaskOverhead
			targets[k] = tgtSet{}
			blks := st.SnodeBlocks(int32(k))
			for bi := 1; bi < len(blks); bi++ {
				targets[k][blks[bi].RowSn] += int64(blks[bi].NRows)
			}
		}
		for k := 0; k < nsn; k++ {
			// Emit edges in sorted target order: successor order steers
			// the DES tie-breaks, and map order would leak Go's map
			// randomization into the simulated schedule.
			tgts := make([]int32, 0, len(targets[k]))
			for tgt := range targets[k] {
				tgts = append(tgts, tgt)
			}
			sort.Slice(tgts, func(i, j int) bool { return tgts[i] < tgts[j] })
			for _, tgt := range tgts {
				tasks[tgt].indeg++
				tasks[k].succ = append(tasks[k].succ,
					edge{to: tgt, bytes: targets[k][tgt] * 8, path: simnet.PathTwoSided})
			}
		}
	}
	s := newSched(tasks, net, p, cfg.RanksPerNode, cfg.Nodes*max(cfg.GPUsPerNode, 1))
	forward := s.run()
	return 2 * forward
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
