package am

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/logp"
	"repro/internal/sim"
)

// runPair runs body0 on proc 0 and body1 on proc 1 over a fresh machine.
func runPair(t *testing.T, params logp.Params, body0, body1 func(*Endpoint)) *Machine {
	t.Helper()
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, params)
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) { body0(m.Endpoint(0)) },
		func(p *sim.Proc) { body1(m.Endpoint(1)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTripTime(t *testing.T) {
	// A blocking request/reply pair must take 2L + 2o_send + 2o_recv:
	// on the NOW baseline, 2·5 + 2·1.8 + 2·4 = 21.6 µs — the paper's
	// Figure 3 reports a 21 µs round trip.
	params := logp.NOW()
	var rtt sim.Time
	replied := false
	served := 0
	runPair(t, params,
		func(ep *Endpoint) {
			start := ep.Now()
			ep.Request(1, ClassRead, func(ep *Endpoint, tok *Token, a Args) {
				served++
				ep.Reply(tok, func(ep *Endpoint, tok *Token, a Args) {
					replied = true
				}, Args{})
			}, Args{})
			ep.WaitUntil(func() bool { return replied }, "await reply")
			rtt = ep.Now() - start
		},
		func(ep *Endpoint) {
			// The request handler runs on this processor during its poll.
			ep.WaitUntil(func() bool { return served == 1 }, "server")
		})
	want := 2*params.EffLatency() + 2*params.EffOSend() + 2*params.EffORecv()
	if rtt != want {
		t.Errorf("RTT = %v, want %v (= 2L+2os+2or)", rtt.Micros(), want.Micros())
	}
	if math.Abs(rtt.Micros()-21.6) > 0.001 {
		t.Errorf("NOW RTT = %v µs, want 21.6", rtt.Micros())
	}
}

func TestLatencyDeltaAddsTwicePerRoundTrip(t *testing.T) {
	params := logp.NOW()
	params.DeltaL = sim.FromMicros(25)
	var rtt sim.Time
	replied := false
	served := 0
	runPair(t, params,
		func(ep *Endpoint) {
			start := ep.Now()
			ep.Request(1, ClassRead, func(ep *Endpoint, tok *Token, a Args) {
				served++
				ep.Reply(tok, func(ep *Endpoint, tok *Token, a Args) { replied = true }, Args{})
			}, Args{})
			ep.WaitUntil(func() bool { return replied }, "await reply")
			rtt = ep.Now() - start
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return served == 1 }, "server")
		})
	if got, want := rtt.Micros(), 21.6+50; math.Abs(got-want) > 0.001 {
		t.Errorf("RTT with ΔL=25 = %v µs, want %v", got, want)
	}
}

func TestOverheadDeltaChargedBothSides(t *testing.T) {
	params := logp.NOW()
	params.DeltaO = sim.FromMicros(50)
	var sendCost sim.Time
	got := false
	runPair(t, params,
		func(ep *Endpoint) {
			start := ep.Now()
			ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) { got = true }, Args{})
			sendCost = ep.Now() - start
			ep.WaitUntil(func() bool { return got }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return got }, "recv one")
		})
	if want := params.EffOSend(); sendCost != want {
		t.Errorf("send cost = %v µs, want o_send+Δo = %v", sendCost.Micros(), want.Micros())
	}
}

func TestGapSpacesInjections(t *testing.T) {
	// Proc 0 fires a burst of one-way requests; with o_send ≪ g the NIC
	// gap paces deliveries, so the last arrival is ≈ first + (n-1)·g.
	params := logp.NOW()
	params.DeltaG = sim.FromMicros(94.2) // g_eff = 100 µs
	const n = 5
	var arrivals []sim.Time
	runPair(t, params,
		func(ep *Endpoint) {
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) {
					arrivals = append(arrivals, ep.Now())
				}, Args{})
			}
			ep.WaitUntil(func() bool { return len(arrivals) == n }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return len(arrivals) == n }, "sink")
		})
	g := params.EffGap()
	for i := 1; i < n; i++ {
		delta := arrivals[i] - arrivals[i-1]
		// Each inter-arrival is the injection gap (receiver o_recv is only
		// 4 µs, far below g_eff=100, so arrivals dominate).
		if delta < g {
			t.Errorf("inter-arrival %d = %v µs < g = %v µs", i, delta.Micros(), g.Micros())
		}
		if delta > g+sim.FromMicros(10) {
			t.Errorf("inter-arrival %d = %v µs too large", i, delta.Micros())
		}
	}
}

func TestSenderDoesNotStallOnGap(t *testing.T) {
	// The host hands messages to the NIC at o_send each; the gap delays the
	// wire, not the processor (as long as the window is open).
	params := logp.NOW()
	params.DeltaG = sim.FromMicros(94.2)
	params.Window = 64
	var issueTime sim.Time
	seen := 0
	const n = 8
	runPair(t, params,
		func(ep *Endpoint) {
			start := ep.Now()
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) { seen++ }, Args{})
			}
			issueTime = ep.Now() - start
			ep.WaitUntil(func() bool { return seen == n }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return seen == n }, "sink")
		})
	if want := sim.Time(n) * params.EffOSend(); issueTime != want {
		t.Errorf("issue time for %d sends = %v µs, want %v µs (n·o_send)", n, issueTime.Micros(), want.Micros())
	}
}

func TestWindowStall(t *testing.T) {
	// With the default window of 8 and a huge latency, issuing the 9th
	// message must wait for a firmware ack: roughly a round trip.
	params := logp.NOW()
	params.DeltaL = sim.FromMicros(1000)
	const n = 9
	seen := 0
	var issueTime sim.Time
	runPair(t, params,
		func(ep *Endpoint) {
			start := ep.Now()
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) { seen++ }, Args{})
			}
			issueTime = ep.Now() - start
			ep.WaitUntil(func() bool { return seen == n }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return seen == n }, "sink")
		})
	rtt := 2 * params.EffLatency()
	if issueTime < rtt {
		t.Errorf("9 sends issued in %v µs; expected a window stall of at least 2L = %v µs",
			issueTime.Micros(), rtt.Micros())
	}
}

func TestWindowCapsInjectionRate(t *testing.T) {
	// Steady-state send interval with large L must approach RTT/W — the
	// capacity artifact behind Table 2's g rise at large L.
	params := logp.NOW()
	params.DeltaL = sim.FromMicros(100.5) // L = 105.5 µs
	const n = 120
	seen := 0
	var issueTime sim.Time
	runPair(t, params,
		func(ep *Endpoint) {
			start := ep.Now()
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) { seen++ }, Args{})
			}
			issueTime = ep.Now() - start
			ep.WaitUntil(func() bool { return seen == n }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return seen == n }, "sink")
		})
	perMsg := issueTime.Micros() / float64(n)
	// Paper Table 2 observes ≈27.7 µs effective g at L=105.5.
	if perMsg < 22 || perMsg > 33 {
		t.Errorf("steady-state interval at L=105.5 = %.1f µs, want ≈27.7 (RTT/W)", perMsg)
	}
}

func TestBulkTransferTiming(t *testing.T) {
	// A 4 KB store at 38 MB/s must arrive ≈ o_send + G·4096 + L after issue.
	params := logp.NOW()
	var arrived sim.Time
	var start sim.Time
	done := false
	runPair(t, params,
		func(ep *Endpoint) {
			start = ep.Now()
			data := make([]byte, 4096)
			ep.Store(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args, d []byte) {
				arrived = ep.Now()
				done = len(d) == 4096
			}, Args{}, data)
			ep.WaitUntil(func() bool { return done }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return done }, "sink")
		})
	want := params.EffOSend() + params.BulkTime(4096) + params.EffLatency() + params.EffORecv()
	if got := arrived - start; got != want {
		t.Errorf("bulk arrival after %v µs, want %v µs", got.Micros(), want.Micros())
	}
}

func TestBulkBandwidthCapSlowsBulkOnly(t *testing.T) {
	// Capping bulk bandwidth must slow Stores but leave short messages at
	// full speed.
	slow := logp.NOW()
	slow.BulkBandwidthMBs = 1
	gotShort := false
	var shortElapsed, bulkElapsed sim.Time
	bulkDone := false
	runPair(t, slow,
		func(ep *Endpoint) {
			s := ep.Now()
			ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) { gotShort = true }, Args{})
			ep.WaitUntil(func() bool { return gotShort }, "short")
			shortElapsed = ep.Now() - s
			s = ep.Now()
			ep.Store(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args, d []byte) { bulkDone = true }, Args{}, make([]byte, 4096))
			ep.WaitUntil(func() bool { return bulkDone }, "bulk")
			bulkElapsed = ep.Now() - s
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return bulkDone }, "sink")
		})
	if shortElapsed > sim.FromMicros(50) {
		t.Errorf("short message took %v µs under a bulk cap", shortElapsed.Micros())
	}
	// 4096 bytes at 1 MB/s ≈ 4096 µs.
	if bulkElapsed < sim.FromMicros(4000) {
		t.Errorf("bulk under 1 MB/s cap took only %v µs", bulkElapsed.Micros())
	}
}

func TestStoreLargeFragmentsAndOffsets(t *testing.T) {
	params := logp.NOW()
	payload := make([]byte, 10*1024) // 2.5 fragments
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	got := make([]byte, len(payload))
	var frags int
	var total int
	runPair(t, params,
		func(ep *Endpoint) {
			ep.StoreLarge(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args, d []byte) {
				off := int(a[3])
				copy(got[off:], d)
				frags++
				total += len(d)
			}, Args{}, payload)
			ep.WaitUntil(func() bool { return total == len(payload) }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return total == len(payload) }, "sink")
		})
	if frags != 3 {
		t.Errorf("fragments = %d, want 3", frags)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
}

func TestStoreTooLargePanics(t *testing.T) {
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, logp.NOW())
	err := eng.Run(func(p *sim.Proc) {
		if p.ID() == 0 {
			m.Endpoint(0).Store(1, ClassWrite, func(*Endpoint, *Token, Args, []byte) {}, Args{}, make([]byte, 5000))
		}
	})
	if err == nil || !strings.Contains(err.Error(), "StoreLarge") {
		t.Fatalf("expected fragment-size panic, got %v", err)
	}
}

func TestHandlerDisciplinePanics(t *testing.T) {
	cases := map[string]func(ep *Endpoint, tok *Token){
		"poll":    func(ep *Endpoint, tok *Token) { ep.Poll() },
		"request": func(ep *Endpoint, tok *Token) { ep.Request(0, ClassWrite, func(*Endpoint, *Token, Args) {}, Args{}) },
		"double-reply": func(ep *Endpoint, tok *Token) {
			h := func(*Endpoint, *Token, Args) {}
			ep.Reply(tok, h, Args{})
			ep.Reply(tok, h, Args{})
		},
	}
	for name, bad := range cases {
		eng := sim.New(sim.Config{Procs: 2})
		m := MustMachine(eng, logp.NOW())
		hit := false
		err := eng.Run(func(p *sim.Proc) {
			ep := m.Endpoint(p.ID())
			if p.ID() == 0 {
				ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) {
					hit = true
					bad(ep, tok)
				}, Args{})
				ep.WaitUntil(func() bool { return false }, "never")
			} else {
				ep.WaitUntil(func() bool { return false }, "never")
			}
		})
		if err == nil || !hit {
			t.Errorf("%s: expected panic from handler misuse, got %v (hit=%v)", name, err, hit)
		}
	}
}

// TestReplyHandlerCannotReply: a reply, short or bulk fragment, is not a
// request token, so answering it fails the run instead of returning a
// window credit the requester never took.
func TestReplyHandlerCannotReply(t *testing.T) {
	reply := func(ep *Endpoint, tok *Token) { ep.Reply(tok, func(*Endpoint, *Token, Args) {}, Args{}) }
	replyBulk := func(ep *Endpoint, tok *Token) {
		ep.ReplyBulk(tok, func(*Endpoint, *Token, Args, []byte) {}, Args{}, []byte{1})
	}
	for _, tc := range []struct {
		name      string
		bulkReply bool                           // the responder answers with ReplyBulk
		misuse    func(ep *Endpoint, tok *Token) // the reply's handler answers it
	}{
		{"reply-to-reply", false, reply},
		{"reply-to-bulk-reply", true, reply},
		{"bulk-reply-to-bulk-reply", true, replyBulk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(sim.Config{Procs: 2})
			m := MustMachine(eng, logp.NOW())
			answered := false
			onReply := func(ep *Endpoint, tok *Token) {
				answered = true
				tc.misuse(ep, tok)
			}
			err := eng.Run(func(p *sim.Proc) {
				ep := m.Endpoint(p.ID())
				if p.ID() == 0 {
					ep.Request(1, ClassRead, func(ep *Endpoint, tok *Token, a Args) {
						if tc.bulkReply {
							ep.ReplyBulk(tok, func(ep *Endpoint, tok *Token, _ Args, _ []byte) { onReply(ep, tok) }, Args{}, []byte{1})
						} else {
							ep.Reply(tok, func(ep *Endpoint, tok *Token, _ Args) { onReply(ep, tok) }, Args{})
						}
					}, Args{})
				}
				ep.WaitUntil(func() bool { return answered }, "answered")
			})
			if err == nil || !strings.Contains(err.Error(), "requires a request token") {
				t.Errorf("answering a reply: err = %v, want a request-token failure", err)
			}
		})
	}
}

func TestImplicitAckReturnsCredit(t *testing.T) {
	// A handler that never replies must still free the window slot.
	params := logp.NOW()
	seen := 0
	runPair(t, params,
		func(ep *Endpoint) {
			for i := 0; i < 3*params.Window; i++ {
				ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) { seen++ }, Args{})
			}
			ep.WaitUntil(func() bool { return seen == 3*params.Window && ep.Outstanding(1) == 0 }, "drain")
			if out := ep.Outstanding(1); out != 0 {
				t.Errorf("outstanding after drain = %d, want 0", out)
			}
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return seen == 3*params.Window }, "sink")
		})
}

func TestStatsCounting(t *testing.T) {
	params := logp.NOW()
	replies := 0
	bulkSeen := false
	m := runPair(t, params,
		func(ep *Endpoint) {
			// 2 read requests (each replied), 1 write request, 1 bulk store.
			for i := 0; i < 2; i++ {
				ep.Request(1, ClassRead, func(ep *Endpoint, tok *Token, a Args) {
					ep.Reply(tok, func(*Endpoint, *Token, Args) { replies++ }, Args{})
				}, Args{})
			}
			ep.Request(1, ClassWrite, func(*Endpoint, *Token, Args) {}, Args{})
			ep.Store(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args, d []byte) { bulkSeen = true }, Args{}, make([]byte, 100))
			ep.WaitUntil(func() bool { return replies == 2 && bulkSeen }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return replies == 2 && bulkSeen }, "sink")
		})
	s := m.Stats()
	if got := s.SentPerProc[0]; got != 4 {
		t.Errorf("proc 0 sent %d, want 4", got)
	}
	if got := s.SentPerProc[1]; got != 2 { // the two read replies
		t.Errorf("proc 1 sent %d, want 2", got)
	}
	if got := s.TotalReads(); got != 4 { // 2 requests + 2 replies
		t.Errorf("read messages = %d, want 4", got)
	}
	if got := s.TotalBulk(); got != 1 {
		t.Errorf("bulk messages = %d, want 1", got)
	}
	if got := s.TotalBulkBytes(); got != 100 {
		t.Errorf("bulk bytes = %d, want 100", got)
	}
	if got := s.Matrix[0][1]; got != 4 {
		t.Errorf("matrix[0][1] = %d, want 4", got)
	}
	if got := s.Matrix[1][0]; got != 2 {
		t.Errorf("matrix[1][0] = %d, want 2", got)
	}
	if got, idx := s.MaxPerProc(); got != 4 || idx != 0 {
		t.Errorf("MaxPerProc = (%d, %d), want (4, 0)", got, idx)
	}
	sum := s.Summarize(1 * sim.Second)
	if sum.AvgMsgsPerProc != 3 {
		t.Errorf("avg msgs/proc = %v, want 3", sum.AvgMsgsPerProc)
	}
	if math.Abs(sum.PercentBulk-100.0/6.0) > 0.01 {
		t.Errorf("percent bulk = %v", sum.PercentBulk)
	}
}

func TestArgsRoundTrip(t *testing.T) {
	want := Args{0xdeadbeef, 42, 1 << 60, 7}
	var got Args
	done := false
	runPair(t, logp.NOW(),
		func(ep *Endpoint) {
			ep.Request(1, ClassWrite, func(ep *Endpoint, tok *Token, a Args) {
				got = a
				done = true
			}, want)
			ep.WaitUntil(func() bool { return done }, "drain")
		},
		func(ep *Endpoint) {
			ep.WaitUntil(func() bool { return done }, "sink")
		})
	if got != want {
		t.Errorf("args = %v, want %v", got, want)
	}
}

func TestDeterministicTraffic(t *testing.T) {
	run := func() (sim.Time, int64) {
		eng := sim.New(sim.Config{Procs: 4, Seed: 7})
		m := MustMachine(eng, logp.NOW())
		total := 0
		doneFrom := make([]int, 4) // done notifications received per proc
		err := eng.Run(func(p *sim.Proc) {
			ep := m.Endpoint(p.ID())
			rng := p.Rand()
			for i := 0; i < 100; i++ {
				dst := (p.ID() + 1 + rng.Intn(3)) % 4
				ep.Request(dst, ClassWrite, func(*Endpoint, *Token, Args) { total++ }, Args{})
				if rng.Intn(4) == 0 {
					ep.Compute(sim.FromMicros(1))
				}
			}
			// Hand-rolled termination: tell everyone we are done; leave
			// once everyone told us. Per-pair FIFO ordering guarantees all
			// data messages precede the done notification.
			me := p.ID()
			for d := 0; d < 4; d++ {
				if d != me {
					ep.Request(d, ClassSync, func(ep *Endpoint, tok *Token, a Args) {
						doneFrom[ep.ID()]++
					}, Args{})
				}
			}
			ep.WaitUntil(func() bool { return doneFrom[me] == 3 }, "await peers")
		})
		if err != nil {
			t.Fatal(err)
		}
		if total != 400 {
			t.Fatalf("handled %d messages, want 400", total)
		}
		return eng.MaxClock(), m.Stats().TotalSent()
	}
	t1, n1 := run()
	t2, n2 := run()
	if t1 != t2 || n1 != n2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", t1, n1, t2, n2)
	}
}

// TestMessageRecordSize pins the message record inside the 128-byte
// allocation size class (it is 120 bytes): the pool keeps the in-flight
// high-water mark of records alive for the whole run, six to eight per
// processor on the scale-radix ladder, and one more field would move
// every record to the 144-byte class.
func TestMessageRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(message{}); got > 128 {
		t.Errorf("message is %d bytes, want at most 128", got)
	}
}
