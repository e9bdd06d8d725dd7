package hier

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/event"
)

// L2Params configures the shared L2 component and its surroundings.
type L2Params struct {
	// Op is the uncore clock domain: the L2's bank occupancy and hit
	// latency are counted in this domain's cycles. It may differ from
	// every core's domain (heterogeneous voltage operating points).
	Op dvfs.OperatingPoint
	// Banks is the number of interleaved banks (block address modulo).
	Banks int
	// MSHRs bounds the outstanding fills; requests beyond it stall.
	MSHRs int
	// OccupancyCycles is how long one access occupies its bank (the
	// pipelined service rate, not the latency).
	OccupancyCycles int
	// DRAMLatencyNS is the fixed DRAM service latency — the seam where
	// a reduced-voltage DRAM timing model (Chang et al.) plugs in.
	DRAMLatencyNS float64
	// LinkLatency annotates each core<->L2 connection (one way).
	LinkLatency event.Time
}

// DefaultL2Params sizes the shared L2 like the paper's private one:
// 512 KB write-back tags, 10-cycle hit latency, with a typical embedded
// banking (8 banks, 2-cycle occupancy) and 8 MSHRs.
func DefaultL2Params(op dvfs.OperatingPoint) L2Params {
	return L2Params{Op: op, Banks: 8, MSHRs: 8, OccupancyCycles: 2, DRAMLatencyNS: core.MemoryLatencyNS}
}

// Validate checks the parameters.
func (p L2Params) Validate() error {
	switch {
	case p.Op.FreqMHz <= 0:
		return fmt.Errorf("hier: L2 domain frequency %v MHz", p.Op.FreqMHz)
	case p.Banks < 1:
		return fmt.Errorf("hier: %d L2 banks", p.Banks)
	case p.MSHRs < 1:
		return fmt.Errorf("hier: %d MSHRs", p.MSHRs)
	case p.OccupancyCycles < 1:
		return fmt.Errorf("hier: %d-cycle bank occupancy", p.OccupancyCycles)
	case p.DRAMLatencyNS <= 0:
		return fmt.Errorf("hier: DRAM latency %v ns", p.DRAMLatencyNS)
	case p.LinkLatency < 0:
		return fmt.Errorf("hier: negative link latency")
	}
	return nil
}

// L2Stats is the shared L2's contention ledger. All fields are exact
// integers so results round-trip JSON byte-identically.
type L2Stats struct {
	Reads      uint64 `json:"reads"`
	ReadHits   uint64 `json:"read_hits"`
	Writes     uint64 `json:"writes"`
	Merges     uint64 `json:"merges"`     // reads absorbed by an in-flight fill
	DramReads  uint64 `json:"dram_reads"` // fills issued to DRAM
	WriteBacks uint64 `json:"write_backs"`
	BankWaitFS int64  `json:"bank_wait_fs"` // read time lost to busy banks, femtoseconds
	MSHRWaitFS int64  `json:"mshr_wait_fs"` // read time lost to MSHR exhaustion, femtoseconds
}

// Add returns the componentwise sum (Monte Carlo aggregation).
func (s L2Stats) Add(o L2Stats) L2Stats {
	return L2Stats{
		Reads: s.Reads + o.Reads, ReadHits: s.ReadHits + o.ReadHits,
		Writes: s.Writes + o.Writes, Merges: s.Merges + o.Merges,
		DramReads: s.DramReads + o.DramReads, WriteBacks: s.WriteBacks + o.WriteBacks,
		BankWaitFS: s.BankWaitFS + o.BankWaitFS, MSHRWaitFS: s.MSHRWaitFS + o.MSHRWaitFS,
	}
}

// Sub returns the delta s minus prev (epoch accounting).
func (s L2Stats) Sub(prev L2Stats) L2Stats {
	return L2Stats{
		Reads: s.Reads - prev.Reads, ReadHits: s.ReadHits - prev.ReadHits,
		Writes: s.Writes - prev.Writes, Merges: s.Merges - prev.Merges,
		DramReads: s.DramReads - prev.DramReads, WriteBacks: s.WriteBacks - prev.WriteBacks,
		BankWaitFS: s.BankWaitFS - prev.BankWaitFS, MSHRWaitFS: s.MSHRWaitFS - prev.MSHRWaitFS,
	}
}

// MeanReadWaitCycles returns the mean contention wait per demand read
// (bank plus MSHR), in cycles of the given clock domain.
func (s L2Stats) MeanReadWaitCycles(op dvfs.OperatingPoint) float64 {
	if s.Reads == 0 {
		return 0
	}
	period := float64(event.PeriodOf(op.FreqMHz))
	return float64(s.BankWaitFS+s.MSHRWaitFS) / period / float64(s.Reads)
}

// fill is one outstanding MSHR entry: a block on its way from DRAM and
// the cores waiting on it. ready is deterministic at allocation time
// because the DRAM latency is fixed; the list may transiently exceed
// the MSHR count — the excess entries carry the stall they already paid
// in their issue time.
type fill struct {
	block   uint64
	ready   event.Time
	waiters []int
}

// SharedL2 is the shared second-level cache component: the paper's
// 512 KB write-back tag array behind banked occupancy and MSHRs, one
// request/response port pair per core, and a fill path to DRAM.
type SharedL2 struct {
	eng    *event.Engine
	tags   *cache.Cache
	p      L2Params
	period event.Time
	hitLat int

	bankBusy []event.Time
	fills    []fill

	fromCore []*event.Port[MemReq]
	toCore   []*event.Port[MemResp]
	dreq     *event.Port[DramReq]
	dresp    *event.Port[DramResp]
	dramLat  event.Time

	stats L2Stats
}

// newSharedL2 builds the component and its ports (unconnected).
func newSharedL2(eng *event.Engine, p L2Params, cores int) *SharedL2 {
	s := &SharedL2{
		eng:      eng,
		tags:     cache.MustNew(cache.L2Config()),
		p:        p,
		period:   event.PeriodOf(p.Op.FreqMHz),
		hitLat:   cache.L2Config().HitLatency,
		bankBusy: make([]event.Time, p.Banks),
		dramLat:  event.FromNS(p.DRAMLatencyNS),
	}
	for i := 0; i < cores; i++ {
		s.fromCore = append(s.fromCore, event.NewPort[MemReq](eng, s, fmt.Sprintf("from-core%d", i)))
		s.toCore = append(s.toCore, event.NewPort[MemResp](eng, s, fmt.Sprintf("to-core%d", i)))
		s.fromCore[i].OnRecv = s.recvReq
	}
	s.dreq = event.NewPort[DramReq](eng, s, "dram-req")
	s.dresp = event.NewPort[DramResp](eng, s, "dram-resp")
	s.dresp.OnRecv = s.recvFill
	return s
}

// Name implements event.Component.
func (s *SharedL2) Name() string { return "l2" }

// Stats returns the contention ledger so far.
func (s *SharedL2) Stats() L2Stats { return s.stats }

// recvReq serves one core request at its arrival time.
func (s *SharedL2) recvReq(m MemReq, at event.Time) error {
	if m.Write {
		s.recvWrite(m, at)
		return nil
	}
	s.stats.Reads++
	block := cache.BlockAddr(m.Addr)
	// MSHR merge: a read to a block already on its way from DRAM joins
	// that fill — it waited on memory (a miss for the core's ledger)
	// but issues no new DRAM read and touches no bank.
	for i := range s.fills {
		if s.fills[i].block == block {
			s.stats.Merges++
			s.fills[i].waiters = append(s.fills[i].waiters, m.Core)
			return nil
		}
	}
	bank := int(block % uint64(len(s.bankBusy)))
	start := at
	if s.bankBusy[bank] > start {
		s.stats.BankWaitFS += int64(s.bankBusy[bank] - start)
		start = s.bankBusy[bank]
	}
	s.bankBusy[bank] = start + event.Time(s.p.OccupancyCycles)*s.period
	res := s.tags.Access(m.Addr, false)
	if res.WroteBack {
		s.stats.WriteBacks++
	}
	done := start + event.Time(s.hitLat)*s.period
	if res.Hit {
		s.stats.ReadHits++
		return s.toCore[m.Core].Send(MemResp{Core: m.Core, L2Hit: true}, done)
	}
	// Miss: the tag array fills eagerly (trace-model parity: the trace
	// L2 also updates at access time) and an MSHR tracks the fill until
	// the data returns. With every MSHR busy, the request issues when
	// the earliest outstanding fill completes — deterministic, because
	// the DRAM latency is fixed and known at allocation.
	issue := done
	if len(s.fills) >= s.p.MSHRs {
		earliest := s.fills[0].ready
		for _, f := range s.fills[1:] {
			if f.ready < earliest {
				earliest = f.ready
			}
		}
		if earliest > issue {
			s.stats.MSHRWaitFS += int64(earliest - issue)
			issue = earliest
		}
	}
	s.stats.DramReads++
	// Take the next MSHR entry, reusing the waiter list a retired fill
	// parked past the end of the slice.
	n := len(s.fills)
	if n < cap(s.fills) {
		s.fills = s.fills[:n+1]
	} else {
		s.fills = append(s.fills, fill{})
	}
	f := &s.fills[n]
	f.block, f.ready = block, issue+s.dramLat
	f.waiters = append(f.waiters[:0], m.Core)
	return s.dreq.Send(DramReq{Block: block}, issue)
}

// recvWrite absorbs a posted block write: bank occupancy (unless it is
// a read-forced forwarding drain) and a tag-array write. Writes are
// posted, so they cost the writer nothing directly — their price is the
// bank pressure later reads observe. Allocating write misses do not
// fetch from DRAM, matching the trace model's off-critical-path
// treatment of store traffic.
func (s *SharedL2) recvWrite(m MemReq, at event.Time) {
	s.stats.Writes++
	if !m.Forwarded {
		block := cache.BlockAddr(m.Addr)
		bank := int(block % uint64(len(s.bankBusy)))
		start := at
		if s.bankBusy[bank] > start {
			start = s.bankBusy[bank]
		}
		s.bankBusy[bank] = start + event.Time(s.p.OccupancyCycles)*s.period
	}
	res := s.tags.Access(m.Addr, true)
	if res.WroteBack {
		s.stats.WriteBacks++
	}
}

// recvFill completes one DRAM fill: retire the MSHR and answer every
// merged waiter at the fill's arrival.
func (s *SharedL2) recvFill(m DramResp, at event.Time) error {
	for i := range s.fills {
		if s.fills[i].block != m.Block {
			continue
		}
		// Retire entry i, keeping the others in order, and park it just
		// past the end so its waiter list is reused by the next miss
		// (not aliased by a live entry's, as a plain shift would leave).
		f := s.fills[i]
		last := len(s.fills) - 1
		copy(s.fills[i:], s.fills[i+1:])
		s.fills[last] = f
		s.fills = s.fills[:last]
		for _, w := range f.waiters {
			if err := s.toCore[w].Send(MemResp{Core: w, L2Hit: false}, at); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("hier: DRAM fill for block %#x with no MSHR entry", m.Block)
}

// DRAM is the fixed-latency main-memory component — deliberately a
// stub with unlimited bandwidth. Its service latency is the single
// number a reduced-voltage DRAM timing model would replace.
type DRAM struct {
	latency event.Time
	req     *event.Port[DramReq]
	resp    *event.Port[DramResp]
	reads   uint64
}

func newDRAM(eng *event.Engine, latency event.Time) *DRAM {
	d := &DRAM{latency: latency}
	d.req = event.NewPort[DramReq](eng, d, "req")
	d.resp = event.NewPort[DramResp](eng, d, "resp")
	d.req.OnRecv = func(m DramReq, at event.Time) error {
		d.reads++
		return d.resp.Send(DramResp{Block: m.Block}, at+d.latency)
	}
	return d
}

// Name implements event.Component.
func (d *DRAM) Name() string { return "dram" }

// Reads returns the fills served.
func (d *DRAM) Reads() uint64 { return d.reads }
