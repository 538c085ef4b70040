package distmat

import (
	"fmt"
	"sort"
	"sync"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// Message tags used by the distributed kernels. Distinct tags per protocol
// phase turn cross-phase bugs into immediate tag-mismatch panics.
const (
	tagPlanIdx  = 101 // halo plan construction: index lists
	tagHaloData = 102 // halo update values
	tagRowMeta  = 103 // remote row gather: row lengths
	tagRowCols  = 104 // remote row gather: column indices
	tagRowVals  = 105 // remote row gather: values
	tagTransp   = 106 // distributed transpose payloads
	tagNAPUp    = 107 // node-aware exchange: member → node leader gather
	tagNAPInter = 108 // node-aware exchange: leader → leader combined message
	tagNAPDown  = 109 // node-aware exchange: node leader → member scatter
)

// Localized is the kernel-ready view of a rank's rows: column indices are
// remapped so that locals occupy [0, NLocal) (global g → g-lo) and halo
// columns occupy [NLocal, NLocal+len(Halo)), with Halo[k] recording the
// global index of halo slot k. Halo is sorted ascending.
type Localized struct {
	Lo, Hi int   // global row range
	Halo   []int // global indices of halo columns, sorted
	M      *sparse.CSR
	// m32 is the lazily-narrowed float32 view of M used by mixed-precision
	// solves. Unexported (gob ships only the schedule above) and built at
	// most once even when concurrent solves share the Localized view.
	m32     *sparse.CSR32
	m32Once sync.Once
}

// NLocal returns the number of locally owned rows/columns.
func (lz *Localized) NLocal() int { return lz.Hi - lz.Lo }

// M32 returns the float32 view of M, narrowing it on first use. The view
// shares M's structure arrays and is read-only, so concurrent solves may
// share it like M itself.
func (lz *Localized) M32() *sparse.CSR32 {
	lz.m32Once.Do(func() { lz.m32 = sparse.NewCSR32(lz.M) })
	return lz.m32
}

// HaloSet returns the halo global indices (shared slice; do not mutate).
func (lz *Localized) HaloSet() []int { return lz.Halo }

// Localize remaps a local-rows matrix (global column indices) into the
// local+halo column numbering.
func Localize(lo, hi int, rows *sparse.CSR) *Localized {
	// Collect halo columns.
	haloSet := map[int]bool{}
	for _, g := range rows.ColIdx {
		if g < lo || g >= hi {
			haloSet[g] = true
		}
	}
	halo := make([]int, 0, len(haloSet))
	for g := range haloSet {
		halo = append(halo, g)
	}
	sort.Ints(halo)
	slot := make(map[int]int, len(halo))
	for k, g := range halo {
		slot[g] = k
	}
	nl := hi - lo
	m := &sparse.CSR{
		Rows:   rows.Rows,
		Cols:   nl + len(halo),
		RowPtr: append([]int(nil), rows.RowPtr...),
		ColIdx: make([]int, rows.NNZ()),
		Val:    append([]float64(nil), rows.Val...),
	}
	for k, g := range rows.ColIdx {
		if g >= lo && g < hi {
			m.ColIdx[k] = g - lo
		} else {
			m.ColIdx[k] = nl + slot[g]
		}
	}
	// Re-sort each row by the new column numbering (locals stay ordered;
	// halo slots are ordered among themselves, but locals and halos
	// interleave differently than global order).
	for i := 0; i < m.Rows; i++ {
		loK, hiK := m.RowPtr[i], m.RowPtr[i+1]
		idx := m.ColIdx[loK:hiK]
		val := m.Val[loK:hiK]
		sort.Sort(&colValSorter{idx, val})
	}
	return &Localized{Lo: lo, Hi: hi, Halo: halo, M: m}
}

type colValSorter struct {
	idx []int
	val []float64
}

func (s *colValSorter) Len() int           { return len(s.idx) }
func (s *colValSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *colValSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// HaloPlan is a rank's halo-update schedule: which locally-owned unknowns it
// sends to which peers, and which remote unknowns it receives into which
// halo slots. Peers appear in ascending rank order.
type HaloPlan struct {
	SendPeers                [][]int // [peer] -> local row indices (0-based within rank) to send
	RecvPeers                [][]int // [peer] -> halo slot indices to fill
	sendPeerIDs, recvPeerIDs []int
	// Routing state (see nodeaware.go). rank is the owning rank, topo the
	// two-level topology the plan was built under, and needCounts the full
	// size×size need matrix (needCounts[d*size+s] = values rank d receives
	// from rank s per exchange) captured for free from BuildHaloPlan's
	// allgather — everything the NAP relay schedule is derived from, with
	// zero extra communication. nodeAware selects the aggregated protocol;
	// it defaults to on whenever the topology has multi-rank nodes and can
	// be toggled with SetNodeAware for flat-plan baselines under the same
	// topology. nap is the exchange schedule derived for the current
	// routing, built lazily on the first exchange.
	rank       int
	topo       simmpi.Topology
	needCounts []int64
	nodeAware  bool
	nap        *napSched
	// f32 selects the half-width wire format: halo values are narrowed to
	// float32 at the gather, travel (and are metered) at 4 bytes each, and
	// are widened back on scatter. The schedule is width-independent; only
	// the workspace differs, so the plan keeps one set per width, lazily
	// sized and reused across updates (a plan is confined to its rank's
	// goroutine, like the Comm it is used with).
	f32 bool
	w64 haloBufs[float64]
	w32 haloBufs[float32]
	// async is the reusable handle for StartExchange (one outstanding
	// nonblocking exchange per plan at a time).
	async ExchangeHandle
}

// SetF32 selects (or clears) the half-width float32 halo wire format for
// this plan. Mixed-precision solves set it on the plans of their inner
// operators; the FP64 outer-loop operators keep the full-width default.
func (p *HaloPlan) SetF32(on bool) { p.f32 = on }

// F32 reports whether the plan exchanges halo values in float32.
func (p *HaloPlan) F32() bool { return p.f32 }

// SendPeerIDs returns the sorted ranks this plan sends to.
func (p *HaloPlan) SendPeerIDs() []int { return p.sendPeerIDs }

// RecvPeerIDs returns the sorted ranks this plan receives from.
func (p *HaloPlan) RecvPeerIDs() []int { return p.recvPeerIDs }

// SendList returns the local row indices sent to the given peer rank, or nil.
func (p *HaloPlan) SendList(peer int) []int { return p.SendPeers[peer] }

// RecvCount returns the total number of halo values received per update.
func (p *HaloPlan) RecvCount() int {
	n := 0
	for _, l := range p.RecvPeers {
		n += len(l)
	}
	return n
}

// SendCount returns the total number of values sent per update.
func (p *HaloPlan) SendCount() int {
	n := 0
	for _, l := range p.SendPeers {
		n += len(l)
	}
	return n
}

// BuildHaloPlan constructs the halo-update schedule for the given halo set.
// All ranks must call it collectively. The exchange of index lists is the
// setup-phase communication METIS-based codes also perform once.
func BuildHaloPlan(c *simmpi.Comm, l *Layout, lz *Localized) *HaloPlan {
	size := c.Size()
	rank := c.Rank()
	plan := &HaloPlan{
		SendPeers: make([][]int, size),
		RecvPeers: make([][]int, size),
		rank:      rank,
		topo:      c.Topology(),
	}
	plan.nodeAware = !plan.topo.Flat()
	// Group my needed globals by owner.
	needByOwner := make([][]int, size)
	for slotIdx, g := range lz.Halo {
		owner := l.Owner(g)
		if owner == rank {
			panic(fmt.Sprintf("distmat: rank %d has local global %d in halo", rank, g))
		}
		needByOwner[owner] = append(needByOwner[owner], g)
		plan.RecvPeers[owner] = append(plan.RecvPeers[owner], slotIdx)
	}
	// Everyone learns the full need-count matrix.
	counts := make([]int64, size)
	for p := 0; p < size; p++ {
		counts[p] = int64(len(needByOwner[p]))
	}
	all := c.AllgatherInt64(counts) // all[r*size+p] = count rank r needs from p
	plan.needCounts = all
	// Send my request lists to owners.
	for p := 0; p < size; p++ {
		if p != rank && len(needByOwner[p]) > 0 {
			c.SendInts(p, tagPlanIdx, needByOwner[p])
		}
	}
	// Receive request lists from ranks that need my rows.
	for r := 0; r < size; r++ {
		if r == rank || all[r*size+rank] == 0 {
			continue
		}
		wanted := c.RecvInts(r, tagPlanIdx)
		local := make([]int, len(wanted))
		for k, g := range wanted {
			if g < lz.Lo || g >= lz.Hi {
				panic(fmt.Sprintf("distmat: rank %d asked rank %d for non-local row %d", r, rank, g))
			}
			local[k] = g - lz.Lo
		}
		plan.SendPeers[r] = local
	}
	for p := 0; p < size; p++ {
		if len(plan.SendPeers[p]) > 0 {
			plan.sendPeerIDs = append(plan.sendPeerIDs, p)
		}
		if len(plan.RecvPeers[p]) > 0 {
			plan.recvPeerIDs = append(plan.recvPeerIDs, p)
		}
	}
	return plan
}

// NewHaloPlanFromSchedule rebuilds a plan from its immutable schedule — the
// per-peer send/receive index lists — recomputing the derived peer-ID sets.
// This is the deserialization constructor: a schedule shipped to a worker
// process (plain exported slices, gob-friendly) comes back as a plan
// equivalent to BuildHaloPlan's output without redoing the collective index
// exchange. The lists are referenced, not copied, like Clone.
func NewHaloPlanFromSchedule(sendPeers, recvPeers [][]int) *HaloPlan {
	p := &HaloPlan{SendPeers: sendPeers, RecvPeers: recvPeers}
	for peer := range sendPeers {
		if len(sendPeers[peer]) > 0 {
			p.sendPeerIDs = append(p.sendPeerIDs, peer)
		}
	}
	for peer := range recvPeers {
		if len(recvPeers[peer]) > 0 {
			p.recvPeerIDs = append(p.recvPeerIDs, peer)
		}
	}
	return p
}

// NewHaloPlanFromScheduleTopo is NewHaloPlanFromSchedule with a two-level
// topology re-attached: needCounts is the need matrix BuildHaloPlan captured
// (see NeedCounts) and rank the owning rank. Node-aware routing is enabled
// whenever topo has multi-rank nodes, exactly as BuildHaloPlan under a
// topology-carrying Comm would — so a prepared system serialized once can be
// solved under any per-request topology without redoing the setup exchange.
func NewHaloPlanFromScheduleTopo(sendPeers, recvPeers [][]int, needCounts []int64, rank int, topo simmpi.Topology) *HaloPlan {
	p := NewHaloPlanFromSchedule(sendPeers, recvPeers)
	p.rank = rank
	p.topo = topo
	p.needCounts = needCounts
	p.nodeAware = !topo.Flat()
	return p
}

// NeedCounts returns the plan's need matrix (needCounts[d*size+s] = values
// rank d receives from rank s per exchange), or nil for schedule-built plans
// that never captured one. Shared slice; callers must not mutate.
func (p *HaloPlan) NeedCounts() []int64 { return p.needCounts }

// Topology returns the topology the plan was built under.
func (p *HaloPlan) Topology() simmpi.Topology { return p.topo }

// NodeAware reports whether exchanges currently route through the
// node-aware aggregated protocol.
func (p *HaloPlan) NodeAware() bool { return p.napActive() }

// SetNodeAware toggles node-aware routing. Enabling it on a plan without a
// multi-rank topology or a need matrix panics: silently falling back to the
// flat schedule would fake the metered structural claims built on the
// toggle. Disabling keeps the topology attached (the meter still classifies
// intra vs inter), which is exactly the flat-plan baseline the node-aware
// benchmarks compare against.
func (p *HaloPlan) SetNodeAware(on bool) {
	if on && (p.topo.Flat() || p.needCounts == nil) {
		panic("distmat: SetNodeAware(true) needs a multi-rank topology and a need matrix (build with BuildHaloPlan under a topology Comm or NewHaloPlanFromScheduleTopo)")
	}
	if on != p.nodeAware {
		p.nodeAware = on
		p.nap = nil // the routing changed: re-derive the schedule
	}
}

// Clone returns a plan that shares this plan's immutable schedule (peer
// sets and index lists, which no exchange mutates) but owns fresh send
// buffers and async state. The per-rank schedule of a matrix is computed
// collectively once (BuildHaloPlan) and is then pure data; cloning lets a
// preconditioner cache hand each concurrent solve its own plan instance
// without redoing the setup-phase index exchange — the buffers are the only
// mutable state, and each clone grows its own lazily.
func (p *HaloPlan) Clone() *HaloPlan {
	return &HaloPlan{
		SendPeers:   p.SendPeers,
		RecvPeers:   p.RecvPeers,
		sendPeerIDs: p.sendPeerIDs,
		recvPeerIDs: p.recvPeerIDs,
		rank:        p.rank,
		topo:        p.topo,
		needCounts:  p.needCounts,
		nodeAware:   p.nodeAware,
		f32:         p.f32,
		nap:         p.nap, // immutable once derived; buffers are NOT shared
	}
}

// CloneTopo clones the plan with a different topology attached (node-aware
// routing on iff topo has multi-rank nodes) — how a cached prepared system
// serves solves under per-request topologies. The derived node schedule is
// rebuilt lazily for the new topology.
func (p *HaloPlan) CloneTopo(topo simmpi.Topology) *HaloPlan {
	c := p.Clone()
	c.topo = topo
	c.nodeAware = !topo.Flat()
	c.nap = nil
	return c
}

// Exchange performs one halo update: xExt must have length
// NLocal+len(Halo); its first NLocal entries are the local values (already
// filled by the caller), and Exchange fills the halo slots from peers.
func (p *HaloPlan) Exchange(c *simmpi.Comm, xExt []float64, nLocal int) {
	// Post all sends, then drain receives; per-pair FIFO channels make this
	// deadlock-free with buffered channels.
	p.PostSends(c, xExt)
	p.CompleteRecvs(c, xExt, nLocal)
}

// PostSends posts this rank's halo sends from xExt (local values already
// filled by the caller). The overlap schedule calls it before computing
// interior rows so the values travel while local work proceeds.
func (p *HaloPlan) PostSends(c *simmpi.Comm, xExt []float64) { p.post(c, xExt, 1, false) }

// CompleteRecvs drains this rank's halo receives into the halo slots of
// xExt, completing an update started with PostSends.
func (p *HaloPlan) CompleteRecvs(c *simmpi.Comm, xExt []float64, nLocal int) {
	p.complete(c, xExt, nLocal, 1)
}

// StartExchange starts one halo update whose sends go out through the
// nonblocking primitive, which copies each payload at post time; the
// returned handle's Complete drains the receives. Only the send primitive
// differs from PostSends, so values and metering (charged at post time) are
// identical byte for byte and structural communication claims are
// independent of which schedule a solver uses. The handle is reused across
// calls (one outstanding exchange per plan at a time, like the buffers).
func (p *HaloPlan) StartExchange(c *simmpi.Comm, xExt []float64) *ExchangeHandle {
	p.post(c, xExt, 1, true)
	p.async.plan = p
	return &p.async
}

// ExchangeHandle is an in-flight halo update started with StartExchange.
type ExchangeHandle struct{ plan *HaloPlan }

// Complete drains the update's receives into the halo slots of xExt.
func (h *ExchangeHandle) Complete(c *simmpi.Comm, xExt []float64, nLocal int) {
	h.plan.complete(c, xExt, nLocal, 1)
}

// wire is the halo wire element type.
type wire interface{ float64 | float32 }

// haloBufs is the exchange workspace at one wire width: per-peer direct
// gather buffers, the up-gather buffer, the leader's per-node outbound and
// per-member down buffers, and the received up/inter payloads the relay
// re-segments.
type haloBufs[E wire] struct {
	direct         [][]E
	up             []E
	out, down      [][]E
	upVals, inVals [][]E
}

// post and complete are the halo exchange engine. One post step
// (postSends), one complete step (completeRecvs) and the leader relay serve
// every routing, wire width, send primitive and batch width k (k = 1 is the
// scalar update; otherwise xExt interleaves k columns per unknown, see
// ExchangeBatch):
//
//   - Routing is the plan's schedule (napSched). Flat routing is its
//     relay-free case: every peer is a direct peer, with no up, down or
//     relay leg. Node-aware routing sends same-node peers direct and
//     re-routes the same per-peer payloads through the node leaders.
//   - The wire element is float64 or float32, picked once per call from the
//     plan's f32 flag. Values are rounded exactly once, at the gather; the
//     relay passes them through untouched (float32 in, float32 out) and the
//     scatter widens them back, so flat and node-aware routing deliver
//     bitwise-equal halos at either width.
//   - Async changes only the send primitive (Isend); receives always
//     complete in the complete step.
//
// Phase ordering is pinned by the runtime's per-sender FIFO + tag-match
// discipline: a member sends its up before its directs, the leader receives
// ups (relay) before draining directs and sends its directs before its
// downs, and members receive directs before their down. Leader self-ups and
// self-downs ride the unmetered no-copy loopback in the same order, which
// is why each width keeps its own buffers: the payload the relay reads IS
// the buffer the leader gathered into.
func (p *HaloPlan) post(c *simmpi.Comm, xExt []float64, k int, async bool) {
	if p.f32 {
		postSends(p, &p.w32, c, xExt, k, async)
	} else {
		postSends(p, &p.w64, c, xExt, k, async)
	}
}

func (p *HaloPlan) complete(c *simmpi.Comm, xExt []float64, nLocal, k int) {
	if p.f32 {
		completeRecvs(p, &p.w32, c, xExt[nLocal*k:], k)
	} else {
		completeRecvs(p, &p.w64, c, xExt[nLocal*k:], k)
	}
}

// postSends is the send half of one k-wide exchange: the up message to the
// node leader, then the direct sends.
func postSends[E wire](p *HaloPlan, b *haloBufs[E], c *simmpi.Comm, xExt []float64, k int, async bool) {
	s := p.sched()
	if s.upCount > 0 {
		buf := resize(&b.up, s.upCount*k)
		o := 0
		for _, d := range s.crossSendIDs {
			o += gather(buf[o:], xExt, p.SendPeers[d], k)
		}
		send(c, s.leaderRank, tagNAPUp, buf, async)
	}
	if b.direct == nil {
		b.direct = make([][]E, len(p.SendPeers))
	}
	for _, d := range s.directSendIDs {
		list := p.SendPeers[d]
		buf := resize(&b.direct[d], len(list)*k)
		gather(buf, xExt, list, k)
		send(c, d, tagHaloData, buf, async)
	}
}

// completeRecvs is the receive half: a leader first discharges its relay
// duty, then every rank drains its direct receives and finally scatters its
// down message. halo is the halo part of the extended vector.
func completeRecvs[E wire](p *HaloPlan, b *haloBufs[E], c *simmpi.Comm, halo []float64, k int) {
	s := p.sched()
	if s.relay != nil {
		relay(p, s.relay, b, c, k)
	}
	for _, src := range s.directRecvIDs {
		slots := p.RecvPeers[src]
		scatter(halo, recv[E](c, src, tagHaloData, len(slots)*k), slots, k)
	}
	if s.downCount > 0 {
		vals := recv[E](c, s.leaderRank, tagNAPDown, s.downCount*k)
		for _, src := range s.crossRecvIDs {
			slots := p.RecvPeers[src]
			scatter(halo, vals, slots, k)
			vals = vals[len(slots)*k:]
		}
	}
}

// relay runs a node leader's middle phase: collect the members' ups, send
// one combined message per peer node, receive the peer nodes' combined
// messages and hand every owed member its down message.
func relay[E wire](p *HaloPlan, r *napRelay, b *haloBufs[E], c *simmpi.Comm, k int) {
	if b.upVals == nil {
		b.upVals = make([][]E, len(r.upMembers))
		b.inVals = make([][]E, len(r.inNodes))
		b.out = make([][]E, len(r.outNodes))
		b.down = make([][]E, len(r.downMembers))
	}
	for i, m := range r.upMembers {
		b.upVals[i] = recv[E](c, m, tagNAPUp, r.upCounts[i]*k)
	}
	for i, node := range r.outNodes {
		buf := resize(&b.out[i], r.outCounts[i]*k)
		assemble(buf, b.upVals, r.outSegs[i], k)
		send(c, p.topo.Leader(node), tagNAPInter, buf, false)
	}
	for i, node := range r.inNodes {
		b.inVals[i] = recv[E](c, p.topo.Leader(node), tagNAPInter, r.inCounts[i]*k)
	}
	for i, m := range r.downMembers {
		buf := resize(&b.down[i], r.downCounts[i]*k)
		assemble(buf, b.inVals, r.downSegs[i], k)
		send(c, m, tagNAPDown, buf, false)
	}
}

// resize resizes *store to n values, reusing capacity across exchanges.
func resize[E wire](store *[]E, n int) []E {
	if cap(*store) < n {
		*store = make([]E, n)
	}
	*store = (*store)[:n]
	return *store
}

// gather copies the k-wide rows list of xExt into buf (narrowing them to
// the wire width) and returns the number of values written. The k = 1 case
// keeps the direct-index loop of the scalar hot path.
func gather[E wire](buf []E, xExt []float64, list []int, k int) int {
	if k == 1 {
		for m, li := range list {
			buf[m] = E(xExt[li])
		}
		return len(list)
	}
	for m, li := range list {
		dst := buf[m*k : m*k+k]
		for j, v := range xExt[li*k : li*k+k] {
			dst[j] = E(v)
		}
	}
	return len(list) * k
}

// scatter widens the k-wide received values into the given halo slots.
func scatter[E wire](halo []float64, vals []E, slots []int, k int) {
	if k == 1 {
		for m, s := range slots {
			halo[s] = float64(vals[m])
		}
		return
	}
	for m, s := range slots {
		dst := halo[s*k : s*k+k]
		for j, v := range vals[m*k : m*k+k] {
			dst[j] = float64(v)
		}
	}
}

// assemble concatenates the k-wide segments of the source payloads into buf.
func assemble[E wire](buf []E, src [][]E, segs []napSeg, k int) {
	o := 0
	for _, sg := range segs {
		o += copy(buf[o:], src[sg.buf][sg.off*k:(sg.off+sg.n)*k])
	}
}

// send posts buf to dst at its wire width, blocking or through the
// nonblocking primitive. Both copy the payload (self-sends excepted, which
// the loopback hands over as is), so a gather buffer is reusable at once
// and the send handle needs no wait.
func send[E wire](c *simmpi.Comm, dst, tag int, buf []E, async bool) {
	switch b := any(buf).(type) {
	case []float64:
		if async {
			c.IsendFloats(dst, tag, b)
		} else {
			c.SendFloats(dst, tag, b)
		}
	case []float32:
		if async {
			c.IsendFloats32(dst, tag, b)
		} else {
			c.SendFloats32(dst, tag, b)
		}
	}
}

// recv receives want values of the wire width from src. A payload of any
// other size is a schedule mismatch and panics.
func recv[E wire](c *simmpi.Comm, src, tag, want int) []E {
	var vals []E
	switch v := any(&vals).(type) {
	case *[]float64:
		*v = c.RecvFloats(src, tag)
	case *[]float32:
		*v = c.RecvFloats32(src, tag)
	}
	if len(vals) != want {
		panic(fmt.Sprintf("distmat: rank %d halo update from %d (tag %d): got %d values, want %d",
			c.Rank(), src, tag, len(vals), want))
	}
	return vals
}

// RecvGlobals returns, per peer rank, the global indices of the unknowns
// this rank receives in each halo update.
func (p *HaloPlan) RecvGlobals(lz *Localized) [][]int {
	out := make([][]int, len(p.RecvPeers))
	for peer, slots := range p.RecvPeers {
		for _, s := range slots {
			out[peer] = append(out[peer], lz.Halo[s])
		}
	}
	return out
}

// SendGlobals returns, per peer rank, the global indices of the unknowns
// this rank sends in each halo update.
func (p *HaloPlan) SendGlobals(lz *Localized) [][]int {
	out := make([][]int, len(p.SendPeers))
	for peer, locals := range p.SendPeers {
		for _, li := range locals {
			out[peer] = append(out[peer], lz.Lo+li)
		}
	}
	return out
}

// GlobalsEqual reports whether two per-peer global index lists describe the
// same exchanged unknown sets (order-insensitive within a peer).
func GlobalsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if len(a[p]) != len(b[p]) {
			return false
		}
		x := append([]int(nil), a[p]...)
		y := append([]int(nil), b[p]...)
		sort.Ints(x)
		sort.Ints(y)
		for k := range x {
			if x[k] != y[k] {
				return false
			}
		}
	}
	return true
}

// PlanEqual reports whether two plans describe exactly the same
// communication scheme (same peers, same unknown lists in the same order).
// The FSAIE-Comm invariance tests compare plans with this.
func PlanEqual(a, b *HaloPlan) bool {
	eq := func(x, y [][]int) bool {
		if len(x) != len(y) {
			return false
		}
		for p := range x {
			if len(x[p]) != len(y[p]) {
				return false
			}
			for k := range x[p] {
				if x[p][k] != y[p][k] {
					return false
				}
			}
		}
		return true
	}
	return eq(a.SendPeers, b.SendPeers) && eq(a.RecvPeers, b.RecvPeers)
}
