package trace

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/logp"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// runTraced runs a small SPMD exchange with a recorder attached.
func runTraced(t *testing.T, rec *Recorder) *splitc.World {
	t.Helper()
	w, err := splitc.NewWorld(4, logp.NOW(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(rec)
	var cells [4]splitc.GPtr
	err = w.Run(func(p *splitc.Proc) {
		cells[p.ID()] = p.Alloc(1)
		p.Barrier()
		for i := 0; i < 10; i++ {
			p.WriteWord(cells[(p.ID()+1)%4], uint64(i))
			p.ComputeUs(5)
		}
		p.Barrier()
		p.ReadWord(cells[(p.ID()+2)%4])
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRecorderCapturesTraffic(t *testing.T) {
	rec := &Recorder{}
	w := runTraced(t, rec)
	sent, handled, bulk, reads := rec.Counts()
	if sent == 0 || handled == 0 {
		t.Fatalf("no events recorded: sent=%d handled=%d", sent, handled)
	}
	// Every handled event corresponds to a sent one.
	if handled != sent {
		t.Errorf("sent %d != handled %d", sent, handled)
	}
	if bulk != 0 {
		t.Errorf("unexpected bulk events: %d", bulk)
	}
	if reads == 0 {
		t.Error("the ReadWord round trips should appear as read sends")
	}
	// The recorder's view agrees with the machine's own stats.
	if sent != w.Stats().TotalSent() {
		t.Errorf("recorder sent %d, stats %d", sent, w.Stats().TotalSent())
	}
	lo, hi := rec.Span()
	if hi <= lo {
		t.Errorf("span [%v, %v]", lo, hi)
	}
}

func TestTimelineRendering(t *testing.T) {
	rec := &Recorder{}
	runTraced(t, rec)
	tl := rec.Timeline(4, 40)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 5 { // header + 4 lanes
		t.Fatalf("timeline has %d lines:\n%s", len(lines), tl)
	}
	for _, lane := range lines[1:] {
		if !strings.Contains(lane, "|") {
			t.Errorf("malformed lane %q", lane)
		}
	}
	// Every processor did work, so no lane should be entirely blank.
	for i, lane := range lines[1:] {
		body := lane[strings.Index(lane, "|")+1 : strings.LastIndex(lane, "|")]
		if strings.TrimSpace(body) == "" {
			t.Errorf("lane %d is empty", i)
		}
	}
}

func TestTimelineEmpty(t *testing.T) {
	rec := &Recorder{}
	if got := rec.Timeline(4, 10); got != "(no events)\n" {
		t.Errorf("empty timeline = %q", got)
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := &Recorder{Limit: 5}
	runTraced(t, rec)
	if len(rec.Events) != 5 {
		t.Errorf("events = %d, want capped at 5", len(rec.Events))
	}
	if rec.Dropped == 0 {
		t.Error("expected dropped events")
	}
	if !strings.Contains(rec.Timeline(4, 10), "dropped") {
		t.Error("timeline should mention drops")
	}
}

func TestSample(t *testing.T) {
	rec := &Recorder{}
	runTraced(t, rec)
	thin := rec.Sample(3)
	want := (len(rec.Events) + 2) / 3
	if len(thin.Events) != want {
		t.Errorf("sampled %d, want %d", len(thin.Events), want)
	}
	if thin.Sample(0).Events == nil {
		t.Error("Sample(0) should clamp, not crash")
	}
}

func TestSampleKeepsLimitAndDropped(t *testing.T) {
	rec := &Recorder{Limit: 5}
	runTraced(t, rec)
	thin := rec.Sample(2)
	if thin.Limit != rec.Limit || thin.Dropped != rec.Dropped {
		t.Errorf("Sample lost truncation state: limit %d->%d, dropped %d->%d",
			rec.Limit, thin.Limit, rec.Dropped, thin.Dropped)
	}
	if !strings.Contains(thin.Timeline(4, 10), "dropped") {
		t.Error("thinned timeline should still mention the original drops")
	}
}

func TestHooksDoNotPerturbTiming(t *testing.T) {
	run := func(h am.Hooks) sim.Time {
		w, err := splitc.NewWorld(4, logp.NOW(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if h != nil {
			w.Attach(h)
		}
		var cells [4]splitc.GPtr
		if err := w.Run(func(p *splitc.Proc) {
			cells[p.ID()] = p.Alloc(1)
			p.Barrier()
			for i := 0; i < 20; i++ {
				p.WriteWord(cells[(p.ID()+1)%4], uint64(i))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	plain := run(nil)
	traced := run(&Recorder{})
	if plain != traced {
		t.Errorf("attached hooks changed virtual timing: %v vs %v", plain, traced)
	}
}

// TestDigestFoldsRecordedEvents attaches a Digest beside a Recorder and
// recomputes the hash from the recorded events with the standard
// library's FNV-1a: the two must agree, so the digest folds exactly the
// Event tuple, in event order, and nothing else.
func TestDigestFoldsRecordedEvents(t *testing.T) {
	rec, d := &Recorder{}, &Digest{}
	if got := d.Sum64(); got != fnv.New64a().Sum64() {
		t.Errorf("empty digest = %#x, want the FNV-1a offset basis", got)
	}
	w, err := splitc.NewWorld(4, logp.NOW(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(rec, d)
	var cells [4]splitc.GPtr
	if err := w.Run(func(p *splitc.Proc) {
		cells[p.ID()] = p.Alloc(64)
		p.Barrier()
		p.WriteWord(cells[(p.ID()+1)%4], 7)
		p.BulkPut(cells[(p.ID()+2)%4], make([]uint64, 64))
		p.Barrier()
		p.ReadWord(cells[(p.ID()+3)%4])
	}); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [27]byte
	for _, e := range rec.Events {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.At))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.Src))
		binary.LittleEndian.PutUint64(buf[16:], uint64(e.Dst))
		buf[24] = byte(e.Class)
		buf[25], buf[26] = 0, 0
		if e.Bulk {
			buf[25] = 1
		}
		if e.Handled {
			buf[26] = 1
		}
		h.Write(buf[:])
	}
	if d.Events() != int64(len(rec.Events)) {
		t.Errorf("digest folded %d events, recorder holds %d", d.Events(), len(rec.Events))
	}
	if _, bulk, _, _ := rec.Counts(); bulk == 0 {
		t.Error("the run should include bulk fragments")
	}
	if got, want := d.Sum64(), h.Sum64(); got != want {
		t.Errorf("digest = %#x, FNV-1a over the recorded events = %#x", got, want)
	}
}
