package krylov

import (
	"fmt"

	"fsaicomm/internal/distmat"
)

// CGVariant selects the communication structure of the distributed CG loop.
type CGVariant int

const (
	// CGClassic is the textbook PCG loop: blocking SpMV and three global
	// reductions per iteration. The default, and the reference the other
	// variants are cross-checked against.
	CGClassic CGVariant = iota
	// CGClassicOverlap keeps the classic recurrence but drives the SpMV
	// through the interior/boundary overlap schedule (halo sends posted
	// before interior rows are computed). Bit-identical results to
	// CGClassic; only the communication schedule differs.
	CGClassicOverlap
	// CGFused is the Chronopoulos–Gear fused-reduction recurrence: one
	// Allreduce of three scalars per iteration, overlapped SpMV and fused
	// one-pass vector kernels. Same Krylov space as CGClassic; iteration
	// counts may differ by ±1 from rounding (see DESIGN.md).
	CGFused
	// CGPipelined is the Ghysels–Vanroose pipelined recurrence: the single
	// reduction of the fused loop becomes a nonblocking IallreduceSum whose
	// flight time is covered by the next preconditioner apply and SpMV, so
	// no rank ever idles in a collective. Same Krylov space as CGClassic;
	// iteration counts may differ by ±2 from the deeper scalar recurrence
	// rearrangement (see DESIGN.md §4d).
	CGPipelined
)

// String returns the flag spelling of the variant.
func (v CGVariant) String() string {
	switch v {
	case CGClassic:
		return "classic"
	case CGClassicOverlap:
		return "classic-overlap"
	case CGFused:
		return "fused"
	case CGPipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("CGVariant(%d)", int(v))
	}
}

// ParseCGVariant parses the -cg flag spellings: "classic",
// "classic-overlap", "fused", "pipelined". The empty string is CGClassic.
func ParseCGVariant(s string) (CGVariant, error) {
	switch s {
	case "", "classic":
		return CGClassic, nil
	case "classic-overlap", "overlap":
		return CGClassicOverlap, nil
	case "fused":
		return CGFused, nil
	case "pipelined":
		return CGPipelined, nil
	default:
		return CGClassic, fmt.Errorf("krylov: unknown CG variant %q (want classic, classic-overlap, fused or pipelined)", s)
	}
}

// Workspace holds a solver's iteration vectors so repeated solves reuse
// them instead of reallocating: the experiment sweeps call the solver once
// per matrix × pattern × ablation cell, and with a shared Workspace the
// steady state allocates nothing per solve. The zero value is ready to
// use; buffers grow on demand and are reused when sizes match. A Workspace
// serves one solve at a time — in distributed runs each rank needs its own
// (pass it via Options.Work when constructing per-rank Options).
type Workspace struct {
	r, z, d, q, s []float64
	// pz, pq, pm, pn are the four extra recurrence vectors of the pipelined
	// variant (z, q, m, n in Ghysels–Vanroose notation).
	pz, pq, pm, pn []float64
	// gv is the GMRES Krylov basis (Restart+1 vectors of local length);
	// gh/gc/gs/gg/gy are the small Hessenberg, Givens and solution buffers
	// of the restarted loop.
	gv                 [][]float64
	gh, gc, gs, gg, gy []float64
	scratch            *distmat.DistVec
	// bscratch, kw and act serve the batched loops: the k-wide halo block,
	// the per-column recurrence scalars and the active-column list.
	bscratch *distmat.BatchDistVec
	kw       []float64
	act      []int
}

func grow(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

// take4 returns the four classic-CG vectors (r, z, d, q) of length n.
func (ws *Workspace) take4(n int) (r, z, d, q []float64) {
	return grow(&ws.r, n), grow(&ws.z, n), grow(&ws.d, n), grow(&ws.q, n)
}

// take5 returns the five fused-CG vectors (r, u, w, p, s) of length n; u,
// w, p alias the classic z, q, d slots so the two variants share storage.
func (ws *Workspace) take5(n int) (r, u, w, p, s []float64) {
	return grow(&ws.r, n), grow(&ws.z, n), grow(&ws.q, n), grow(&ws.d, n), grow(&ws.s, n)
}

// take9 returns the nine pipelined-CG vectors (r, u, w, p, s, z, q, m, n);
// the first five alias the fused-CG slots, the last four are the pipelined
// recurrence's own.
func (ws *Workspace) take9(nl int) (r, u, w, p, s, z, q, m, n []float64) {
	r, u, w, p, s = ws.take5(nl)
	return r, u, w, p, s,
		grow(&ws.pz, nl), grow(&ws.pq, nl), grow(&ws.pm, nl), grow(&ws.pn, nl)
}

// takeGMRES returns the restarted-GMRES buffers for local length nl and
// restart m: the residual/precondition/work vectors, the m+1 basis vectors,
// and the small (m+1)×m Hessenberg (row-major flat), Givens cosine/sine,
// rotated-RHS and solution buffers.
func (ws *Workspace) takeGMRES(nl, m int) (r, z, w []float64, v [][]float64, h, cs, sn, g, y []float64) {
	r, z, w = grow(&ws.r, nl), grow(&ws.z, nl), grow(&ws.q, nl)
	if cap(ws.gv) < m+1 {
		ws.gv = append(ws.gv[:cap(ws.gv)], make([][]float64, m+1-cap(ws.gv))...)
	}
	ws.gv = ws.gv[:m+1]
	for i := range ws.gv {
		ws.gv[i] = growSlice(ws.gv[i], nl)
	}
	return r, z, w, ws.gv,
		grow(&ws.gh, (m+1)*m), grow(&ws.gc, m), grow(&ws.gs, m),
		grow(&ws.gg, m+1), grow(&ws.gy, m)
}

func growSlice(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// takeScalars returns n zeroed recurrence scalars.
func (ws *Workspace) takeScalars(n int) []float64 {
	kw := grow(&ws.kw, n)
	clear(kw)
	return kw
}

// takeActive returns the k-slot active-column list.
func (ws *Workspace) takeActive(k int) []int {
	if cap(ws.act) < k {
		ws.act = make([]int, k)
	}
	return ws.act[:k]
}

// batchScratch returns a k-wide halo-extended block compatible with lz,
// reusing the previous one when the layout and width match.
func (ws *Workspace) batchScratch(lz *distmat.Localized, k int) *distmat.BatchDistVec {
	need := (lz.NLocal() + len(lz.HaloSet())) * k
	if s := ws.bscratch; s == nil || s.NLocal != lz.NLocal() || s.K != k || len(s.Ext) != need {
		ws.bscratch = distmat.NewBatchDistVec(lz, k)
	}
	return ws.bscratch
}

// distScratch returns a halo-extended vector compatible with lz, reusing
// the previous one when the layout matches.
func (ws *Workspace) distScratch(lz *distmat.Localized) *distmat.DistVec {
	need := lz.NLocal() + len(lz.HaloSet())
	if ws.scratch == nil || ws.scratch.NLocal != lz.NLocal() || len(ws.scratch.Ext) != need {
		ws.scratch = distmat.NewDistVec(lz)
	}
	return ws.scratch
}
