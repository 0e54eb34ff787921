package am

import (
	"strings"

	"repro/internal/sim"
)

// Stats accumulates the communication characterization the paper reports in
// Table 4 and Figure 4. Messages are counted at send time, per sending
// processor: requests, explicit replies, and bulk fragments all count;
// firmware-level acks do not (they never touch a host processor). This is
// the paper's convention — EM3D(read)'s per-processor message count is the
// sum of the read requests it sends and the read replies it sends.
type Stats struct {
	p int

	// Matrix[i][j] counts messages sent from processor i to processor j
	// (Figure 4's communication balance plot).
	Matrix [][]int64

	// Per-proc message counts (requests + replies + bulk fragments).
	SentPerProc []int64

	// Bulk traffic.
	BulkPerProc  []int64
	BulkBytesPer []int64

	// Read traffic (ClassRead requests and replies).
	ReadPerProc []int64

	// Synchronization: barrier crossings, counted once per barrier episode
	// by the synchronization layer via CountBarrier.
	Barriers int64

	// SendIntervals histograms the spacing between one processor's
	// consecutive sends (burstiness instrumentation, §5.2).
	SendIntervals []Histogram
	lastSend      []int64 // virtual ns of the previous send; -1 = none

	// Fault-injection and reliability-protocol counters, machine-wide.
	// These count NIC-level events, so they are deliberately excluded
	// from the paper's host-message accounting above: a retransmission or
	// a wire duplicate never touches a host processor.
	Retransmits   int64 // reliability-layer re-injections
	WireDrops     int64 // transmissions lost by the fault injector
	WireDups      int64 // transmissions duplicated by the fault injector
	DupsDiscarded int64 // arrivals discarded by receiver-side dedup
}

// statsDetailMaxP bounds the per-pair and per-interval instrumentation:
// the P×P balance matrix and the ~400-byte interval histogram per
// processor only exist on machines small enough to render them (every
// paper figure needs P ≤ 64). Above the bound they stay nil and the
// scalar per-processor counters carry the characterization — a
// million-processor machine cannot afford a 10¹²-cell matrix.
const statsDetailMaxP = 4096

func newStats(p int) *Stats {
	s := &Stats{p: p}
	s.SentPerProc = make([]int64, p)
	s.BulkPerProc = make([]int64, p)
	s.BulkBytesPer = make([]int64, p)
	s.ReadPerProc = make([]int64, p)
	if p > statsDetailMaxP {
		return s
	}
	s.Matrix = make([][]int64, p)
	for i := range s.Matrix {
		s.Matrix[i] = make([]int64, p)
	}
	s.SendIntervals = make([]Histogram, p)
	s.lastSend = make([]int64, p)
	for i := range s.lastSend {
		s.lastSend[i] = -1
	}
	return s
}

func (s *Stats) countSend(src, dst int, class Class, bulk bool, bytes int) {
	if s.Matrix != nil {
		s.Matrix[src][dst]++
	}
	s.SentPerProc[src]++
	if bulk {
		s.BulkPerProc[src]++
		s.BulkBytesPer[src] += int64(bytes)
	}
	if class == ClassRead {
		s.ReadPerProc[src]++
	}
}

// countSendAt additionally records the send instant for burstiness.
func (s *Stats) countSendAt(src, dst int, class Class, bulk bool, bytes int, now sim.Time) {
	s.countSend(src, dst, class, bulk, bytes)
	s.recordSendInterval(src, now)
}

// CountBarrier records one completed barrier episode. The synchronization
// layer calls it from exactly one processor per barrier.
func (s *Stats) CountBarrier() { s.Barriers++ }

// P returns the processor count the stats were sized for.
func (s *Stats) P() int { return s.p }

// TotalSent sums messages over all processors.
func (s *Stats) TotalSent() int64 {
	var t int64
	for _, v := range s.SentPerProc {
		t += v
	}
	return t
}

// AvgPerProc is the mean message count per processor.
func (s *Stats) AvgPerProc() float64 {
	return float64(s.TotalSent()) / float64(s.p)
}

// MaxPerProc is the largest per-processor message count and its processor,
// the paper's communication-imbalance indicator and the m of its models.
func (s *Stats) MaxPerProc() (int64, int) {
	var mx int64
	idx := 0
	for i, v := range s.SentPerProc {
		if v > mx {
			mx, idx = v, i
		}
	}
	return mx, idx
}

// TotalBulk sums bulk fragment counts.
func (s *Stats) TotalBulk() int64 {
	var t int64
	for _, v := range s.BulkPerProc {
		t += v
	}
	return t
}

// TotalBulkBytes sums bulk payload bytes.
func (s *Stats) TotalBulkBytes() int64 {
	var t int64
	for _, v := range s.BulkBytesPer {
		t += v
	}
	return t
}

// TotalReads sums read-classified messages.
func (s *Stats) TotalReads() int64 {
	var t int64
	for _, v := range s.ReadPerProc {
		t += v
	}
	return t
}

// PercentBulk is the fraction of messages using the bulk mechanism, in
// percent (Table 4 column "Percent Bulk Msg.").
func (s *Stats) PercentBulk() float64 {
	total := s.TotalSent()
	if total == 0 {
		return 0
	}
	return 100 * float64(s.TotalBulk()) / float64(total)
}

// PercentReads is the fraction of messages that are read requests or
// replies, in percent (Table 4 column "Percent Reads").
func (s *Stats) PercentReads() float64 {
	total := s.TotalSent()
	if total == 0 {
		return 0
	}
	return 100 * float64(s.TotalReads()) / float64(total)
}

// BalanceRows renders Figure 4's communication balance plot from Matrix:
// one row of glyphs per sender, each glyph shading a sender→receiver
// message count against the largest cell. Empty when the matrix was not
// kept (above statsDetailMaxP).
func (s *Stats) BalanceRows() []string {
	shades := []rune(" .:-=+*#%@█")
	var mx int64
	for _, row := range s.Matrix {
		for _, v := range row {
			mx = max(mx, v)
		}
	}
	rows := make([]string, len(s.Matrix))
	for i, row := range s.Matrix {
		var b strings.Builder
		for _, v := range row {
			idx := 0
			if mx > 0 && v > 0 {
				idx = min(1+int(int64(len(shades)-2)*v/mx), len(shades)-1)
			}
			b.WriteRune(shades[idx])
		}
		rows[i] = b.String()
	}
	return rows
}

// Summary derives the Table 4 row for a run that took `elapsed` of virtual
// time.
type Summary struct {
	AvgMsgsPerProc    float64
	MaxMsgsPerProc    int64
	MsgsPerProcPerMs  float64
	MsgIntervalUs     float64 // average gap between one processor's sends
	BarrierIntervalMs float64
	PercentBulk       float64
	PercentReads      float64
	BulkKBsPerProc    float64 // bulk bandwidth per processor, KB/s
	SmallKBsPerProc   float64 // short-message bandwidth per processor, KB/s
}

// Summarize computes the paper's Table 4 metrics for a run of the given
// virtual duration.
func (s *Stats) Summarize(elapsed sim.Time) Summary {
	var sum Summary
	sum.AvgMsgsPerProc = s.AvgPerProc()
	sum.MaxMsgsPerProc, _ = s.MaxPerProc()
	ms := elapsed.Millis()
	if ms > 0 {
		sum.MsgsPerProcPerMs = sum.AvgMsgsPerProc / ms
		if s.Barriers > 0 {
			sum.BarrierIntervalMs = ms / float64(s.Barriers)
		}
	}
	if sum.AvgMsgsPerProc > 0 {
		sum.MsgIntervalUs = elapsed.Micros() / sum.AvgMsgsPerProc
	}
	sum.PercentBulk = s.PercentBulk()
	sum.PercentReads = s.PercentReads()
	sec := elapsed.Seconds()
	if sec > 0 {
		sum.BulkKBsPerProc = float64(s.TotalBulkBytes()) / float64(s.p) / sec / 1024
		smallMsgs := s.TotalSent() - s.TotalBulk()
		sum.SmallKBsPerProc = float64(smallMsgs) * SmallWireBytes / float64(s.p) / sec / 1024
	}
	return sum
}
