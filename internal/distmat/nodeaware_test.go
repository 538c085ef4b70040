package distmat

import (
	"fmt"
	"math"
	"testing"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

// handPlan builds the hand-designed 4-rank halo used to pin exact meter
// attribution: every rank owns 2 values and sends its local 0 to every other
// rank, receiving one value from each peer into halo slots ordered by source
// rank. Under the flat schedule that is 3 messages of 8 bytes per rank; under
// a 2-node × 2-rank topology the node-aware protocol must collapse the 8
// node-crossing messages into 2 combined leader messages carrying the same
// 64 bytes.
func handPlan(rank int, topo simmpi.Topology) *HaloPlan {
	const size = 4
	send := make([][]int, size)
	recv := make([][]int, size)
	slot := 0
	for p := 0; p < size; p++ {
		if p == rank {
			continue
		}
		send[p] = []int{0}
		recv[p] = []int{slot}
		slot++
	}
	need := make([]int64, size*size)
	for d := 0; d < size; d++ {
		for s := 0; s < size; s++ {
			if d != s {
				need[d*size+s] = 1
			}
		}
	}
	return NewHaloPlanFromScheduleTopo(send, recv, need, rank, topo)
}

// exchangeCase is one flavour of the hand-built exchange: routing (flat or
// node-aware), wire width (float64 or float32) and kind — a blocking k = 1
// update, a nonblocking k = 1 update, or a blocking k-wide batch.
type exchangeCase struct {
	aware, f32, async bool
	k                 int
}

func (ec exchangeCase) String() string {
	return fmt.Sprintf("aware=%v f32=%v async=%v k=%d", ec.aware, ec.f32, ec.async, ec.k)
}

// exchangeCases spans {flat, node-aware} × {float64, float32} ×
// {sync, async, k = 3}.
func exchangeCases() []exchangeCase {
	var out []exchangeCase
	for _, aware := range []bool{false, true} {
		for _, f32 := range []bool{false, true} {
			out = append(out,
				exchangeCase{aware: aware, f32: f32, k: 1},
				exchangeCase{aware: aware, f32: f32, async: true, k: 1},
				exchangeCase{aware: aware, f32: f32, k: 3})
		}
	}
	return out
}

// handExchange runs one hand-plan exchange of flavour ec and checks the
// halo exactly. Column j of local value i holds 100·rank + i + 1000·j — exact
// in float32 — so the halo slot of source s (sources ascending, skipping
// this rank) must come back as 100·s + 1000·j bit for bit. It returns the
// plan's ExchangeCounts(k) prediction.
func handExchange(c *simmpi.Comm, topo simmpi.Topology, ec exchangeCase) ([4]int64, error) {
	p := handPlan(c.Rank(), topo)
	p.SetNodeAware(ec.aware)
	p.SetF32(ec.f32)
	if p.NodeAware() != ec.aware || p.F32() != ec.f32 {
		return [4]int64{}, fmt.Errorf("rank %d %v: plan reports aware=%v f32=%v", c.Rank(), ec, p.NodeAware(), p.F32())
	}
	k := ec.k
	ext := make([]float64, 5*k)
	for i := 0; i < 2; i++ {
		for j := 0; j < k; j++ {
			ext[i*k+j] = float64(100*c.Rank() + i + 1000*j)
		}
	}
	switch {
	case k > 1:
		p.ExchangeBatch(c, ext, 2, k)
	case ec.async:
		p.StartExchange(c, ext).Complete(c, ext, 2)
	default:
		p.Exchange(c, ext, 2)
	}
	slot := 0
	for src := 0; src < 4; src++ {
		if src == c.Rank() {
			continue
		}
		for j := 0; j < k; j++ {
			if got, want := ext[(2+slot)*k+j], float64(100*src+1000*j); got != want {
				return [4]int64{}, fmt.Errorf("rank %d %v: halo slot %d col %d: got %v, want %v",
					c.Rank(), ec, slot, j, got, want)
			}
		}
		slot++
	}
	im, ib, em, eb := p.ExchangeCounts(k)
	return [4]int64{im, ib, em, eb}, nil
}

// exchangeModes runs the hand-built exchange once per case inside one world
// and records, per case and rank, the metered traffic that rank sent
// (RankSnapshot deltas — metering is charged synchronously at post time, so
// this isolates each case on every backend) and its ExchangeCounts
// prediction.
func exchangeModes(topo simmpi.Topology, cases []exchangeCase, snaps [][4]simmpi.Snapshot, counts [][4][4]int64) func(c *simmpi.Comm) error {
	return func(c *simmpi.Comm) error {
		for i, ec := range cases {
			c.Barrier()
			before := c.Meter().RankSnapshot(c.Rank())
			n, err := handExchange(c, topo, ec)
			if err != nil {
				return err
			}
			counts[i][c.Rank()] = n
			snaps[i][c.Rank()] = c.Meter().RankSnapshot(c.Rank()).Sub(before)
		}
		c.Barrier()
		return nil
	}
}

// runExchangeModes runs every exchange case on a 2-node × 2-rank world over
// the sim or tcp backend and checks, rank by rank, that ExchangeCounts
// equals the meter. It returns the per-case world totals.
func runExchangeModes(t *testing.T, tcp bool) ([]exchangeCase, []simmpi.Snapshot) {
	t.Helper()
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	cases := exchangeCases()
	snaps := make([][4]simmpi.Snapshot, len(cases))
	counts := make([][4][4]int64, len(cases))
	fn := exchangeModes(topo, cases, snaps, counts)
	var err error
	if tcp {
		_, err = tcpmpi.RunLocalTopo(4, tcpmpi.Config{Timeout: testTimeout}, topo, fn)
	} else {
		_, err = simmpi.RunTopo(4, testTimeout, topo, fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]simmpi.Snapshot, len(cases))
	for i, ec := range cases {
		for r := 0; r < 4; r++ {
			rs, n := snaps[i][r], counts[i][r]
			if n != [4]int64{rs.IntraP2PMessages, rs.IntraP2PBytes, rs.InterP2PMessages, rs.InterP2PBytes} {
				t.Fatalf("%v rank %d: ExchangeCounts %v (intra msgs/bytes, inter msgs/bytes) disagrees with meter %+v",
					ec, r, n, rs)
			}
			totals[i].IntraP2PMessages += rs.IntraP2PMessages
			totals[i].IntraP2PBytes += rs.IntraP2PBytes
			totals[i].InterP2PMessages += rs.InterP2PMessages
			totals[i].InterP2PBytes += rs.InterP2PBytes
		}
	}
	return cases, totals
}

// checkHandAttribution pins the exact hand-computed split of every case.
// At float64 and k = 1 the flat schedule sends 4 intra (32 B) and 8 inter
// (64 B) messages; node-aware routing sends 8 intra (96 B) and collapses the
// inter leg to one message per node pair and direction (2) carrying the
// same 64 bytes. A k-wide batch moves k× the bytes through the same
// messages, float32 exactly half the bytes, and the async kind is metered
// exactly like the blocking one.
func checkHandAttribution(t *testing.T, cases []exchangeCase, totals []simmpi.Snapshot) {
	t.Helper()
	for i, ec := range cases {
		im, ib, em, eb := int64(4), int64(32), int64(8), int64(64)
		if ec.aware {
			im, ib, em, eb = 8, 96, 2, 64
		}
		scale := int64(ec.k)
		if ec.f32 {
			ib, eb = ib/2, eb/2
		}
		s := totals[i]
		if s.IntraP2PMessages != im || s.IntraP2PBytes != ib*scale ||
			s.InterP2PMessages != em || s.InterP2PBytes != eb*scale {
			t.Fatalf("%v split: %+v, want intra %d/%d inter %d/%d", ec, s, im, ib*scale, em, eb*scale)
		}
	}
}

func TestNodeAwareHandBuiltExchangeSim(t *testing.T) {
	cases, totals := runExchangeModes(t, false)
	checkHandAttribution(t, cases, totals)
}

func TestNodeAwareHandBuiltExchangeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket transport in -short mode")
	}
	cases, totals := runExchangeModes(t, true)
	checkHandAttribution(t, cases, totals)
}

// The async (StartExchange/Complete) and k-wide batched paths must deliver
// the same values through the same envelopes as the blocking k = 1 update,
// on both routings and both wire widths: async metering equals blocking
// metering exactly, a k-wide batch costs the same messages carrying k× the
// bytes, float32 costs the same messages carrying exactly half the bytes of
// float64, and node-aware routing keeps the flat inter-node bytes while
// strictly cutting inter-node messages.
func TestNodeAwareAsyncAndBatchedExchange(t *testing.T) {
	cases, totals := runExchangeModes(t, false)
	find := func(want exchangeCase) simmpi.Snapshot {
		for i, ec := range cases {
			if ec == want {
				return totals[i]
			}
		}
		t.Fatalf("no case %v", want)
		return simmpi.Snapshot{}
	}
	for _, ec := range cases {
		s := find(ec)
		sync := find(exchangeCase{aware: ec.aware, f32: ec.f32, k: 1})
		if s.IntraP2PMessages != sync.IntraP2PMessages || s.InterP2PMessages != sync.InterP2PMessages ||
			s.IntraP2PBytes != sync.IntraP2PBytes*int64(ec.k) || s.InterP2PBytes != sync.InterP2PBytes*int64(ec.k) {
			t.Fatalf("%v: %+v is not the blocking k = 1 split %+v scaled by k", ec, s, sync)
		}
		if ec.f32 {
			wide := find(exchangeCase{aware: ec.aware, async: ec.async, k: ec.k})
			if s.IntraP2PMessages != wide.IntraP2PMessages || s.InterP2PMessages != wide.InterP2PMessages ||
				2*s.IntraP2PBytes != wide.IntraP2PBytes || 2*s.InterP2PBytes != wide.InterP2PBytes {
				t.Fatalf("%v: %+v is not half the float64 bytes of %+v over the same messages", ec, s, wide)
			}
		}
		if ec.aware {
			flat := find(exchangeCase{f32: ec.f32, async: ec.async, k: ec.k})
			if s.InterP2PBytes != flat.InterP2PBytes || s.InterP2PMessages >= flat.InterP2PMessages {
				t.Fatalf("%v: node-aware inter %d msgs/%d B vs flat %d/%d: want fewer messages, same bytes",
					ec, s.InterP2PMessages, s.InterP2PBytes, flat.InterP2PMessages, flat.InterP2PBytes)
			}
		}
	}
}

// A distributed SpMV whose halo flows through the node-aware protocol must
// produce values bit-identical to the flat schedule (same payloads in the
// same slots, only the envelope differs), at both wire widths and for the
// blocking, nonblocking and k = 3 batched products, and match the serial
// product: to rounding at float64, to float32 accuracy at float32.
func TestNodeAwareSpMVBitIdenticalToFlat(t *testing.T) {
	a := grid2d(8, 8)
	n := a.Rows
	const nranks, k = 4, 3
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	l := NewUniformLayout(n, nranks)
	x := make([]float64, n*k)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	// want[j] is the serial product of column j.
	want := make([][]float64, k)
	for j := range want {
		xj := make([]float64, n)
		for i := range xj {
			xj[i] = x[i*k+j]
		}
		want[j] = make([]float64, n)
		a.MulVec(xj, want[j])
	}
	const sync, async, batch = 0, 1, 2
	// got[f32][aware][kind] holds the interleaved n×k result of one product
	// kind (the scalar kinds act on column 0 only).
	var got [2][2][3][]float64
	for f := range got {
		for r := range got[f] {
			for kind := range got[f][r] {
				got[f][r][kind] = make([]float64, n*k)
			}
		}
	}
	_, err := simmpi.RunTopo(nranks, testTimeout, topo, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		nl := hi - lo
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi), WithOverlap())
		if !op.Plan.NodeAware() {
			return fmt.Errorf("rank %d: plan built under a topology Comm not node-aware", c.Rank())
		}
		scratch := NewDistVec(op.LZ)
		bscratch := NewBatchDistVec(op.LZ, k)
		x0 := make([]float64, nl)
		for i := range x0 {
			x0[i] = x[(lo+i)*k]
		}
		y := make([]float64, nl)
		yb := make([]float64, nl*k)
		for f, f32 := range []bool{false, true} {
			op.SetF32(f32)
			for r, aware := range []bool{false, true} {
				op.Plan.SetNodeAware(aware)
				c.Barrier()
				op.MulVec(c, x0, y, scratch, nil)
				for i, v := range y {
					got[f][r][sync][(lo+i)*k] = v
				}
				op.Overlap().MulVecOverlapAsync(c, x0, y, scratch, nil)
				for i, v := range y {
					got[f][r][async][(lo+i)*k] = v
				}
				op.MulMat(c, x[lo*k:hi*k], yb, k, nil, bscratch, nil)
				copy(got[f][r][batch][lo*k:hi*k], yb)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for f, f32 := range []bool{false, true} {
		tol := 1e-12
		if f32 {
			tol = 1e-6
		}
		for kind, name := range []string{"sync", "async", "batch"} {
			flat, nap := got[f][0][kind], got[f][1][kind]
			cols := 1
			if kind == batch {
				cols = k
			}
			for i := 0; i < n; i++ {
				for j := 0; j < cols; j++ {
					if nap[i*k+j] != flat[i*k+j] {
						t.Fatalf("f32=%v %s y[%d][%d]: node-aware %v differs from flat %v",
							f32, name, i, j, nap[i*k+j], flat[i*k+j])
					}
					if w := want[j][i]; math.Abs(nap[i*k+j]-w) > tol*(1+math.Abs(w)) {
						t.Fatalf("f32=%v %s y[%d][%d] = %v, want %v", f32, name, i, j, nap[i*k+j], w)
					}
				}
			}
		}
	}
}

// Enabling node awareness without the data to derive the relay schedule must
// fail loudly — a silent flat fallback would fake the metered claims.
func TestSetNodeAwareWithoutTopologyPanics(t *testing.T) {
	p := NewHaloPlanFromSchedule(make([][]int, 2), make([][]int, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("SetNodeAware(true) without a topology did not panic")
		}
	}()
	p.SetNodeAware(true)
}
