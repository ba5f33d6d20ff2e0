package radio

import (
	"math"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/rng"
)

// newTestMedium builds a medium whose nodes 1, 2, … stand at pos; node 0 is
// a bystander at the origin, so the links under test keep the ids (and with
// them the shadowing and stream keys) they always had.
func newTestMedium(seed int64, pos ...env.Position) (*Medium, *env.Field) {
	field := env.New(env.Config{Seed: seed, NoiseSigma: 0.001})
	m := NewMedium(Config{Seed: seed})
	m.SetTopology(append([]env.Position{{}}, pos...))
	return m, field
}

// unicast is one a→b exchange with both noise floors sampled from the field
// at the endpoints' positions, as the simulator samples them per epoch.
func unicast(m *Medium, f *env.Field, a, b int, src, dst env.Position, contention float64, rxUp bool) TxOutcome {
	return m.UnicastNoise(a, b, contention, rxUp, f.NoiseFloor(dst), f.NoiseFloor(src))
}

// meanRSSI is the cached deterministic received power for a→b.
func (m *Medium) meanRSSI(a, b int) float64 { return m.links[a*m.n+b].rxBase }

func TestRSSIDecreasesWithDistance(t *testing.T) {
	m, _ := newTestMedium(1, env.Position{X: 0, Y: 0}, env.Position{X: 10, Y: 0}, env.Position{X: 100, Y: 0})
	var near, far float64
	const n = 200
	for i := 0; i < n; i++ {
		m.BeginEpoch(i) // one beacon fade per link per epoch
		r12, _ := m.Beacon(1, 2, -98)
		r13, _ := m.Beacon(1, 3, -98)
		near += r12
		far += r13
	}
	if near/n <= far/n {
		t.Errorf("RSSI near (%.1f) should exceed far (%.1f)", near/n, far/n)
	}
}

func TestRSSIShadowStablePerLink(t *testing.T) {
	m, _ := newTestMedium(2)
	a := m.linkShadow(1, 2)
	b := m.linkShadow(1, 2)
	if a != b {
		t.Error("link shadow not stable")
	}
	if m.linkShadow(2, 1) != a {
		t.Error("link shadow not symmetric")
	}
}

func TestPRRMonotoneInSNR(t *testing.T) {
	m, _ := newTestMedium(3)
	noise := -98.0
	prev := -1.0
	for rssi := -94.0; rssi <= -60; rssi += 2 {
		prr := m.PRR(rssi, noise)
		if prr < prev {
			t.Fatalf("PRR not monotone at rssi=%v: %v < %v", rssi, prr, prev)
		}
		if prr < 0 || prr > 1 {
			t.Fatalf("PRR %v out of [0,1]", prr)
		}
		prev = prr
	}
}

func TestPRRBelowSensitivityIsZero(t *testing.T) {
	m, _ := newTestMedium(4)
	if got := m.PRR(-97, -120); got != 0 {
		t.Errorf("PRR below sensitivity = %v, want 0", got)
	}
}

func TestPRRHighSNRNearOne(t *testing.T) {
	m, _ := newTestMedium(5)
	if got := m.PRR(-60, -98); got < 0.99 {
		t.Errorf("PRR at 38dB SNR = %v, want ~1", got)
	}
}

func TestUnicastGoodLinkSucceedsQuickly(t *testing.T) {
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 15, Y: 0}
	m, f := newTestMedium(6, src, dst)
	var attempts int
	const n = 300
	for i := 0; i < n; i++ {
		out := unicast(m, f, 1, 2, src, dst, 0, true)
		if !out.Acked {
			t.Fatalf("good link failed: %v", out)
		}
		attempts += out.Attempts
	}
	if avg := float64(attempts) / n; avg > 1.5 {
		t.Errorf("average attempts on good link = %v, want close to 1", avg)
	}
}

func TestUnicastDownReceiverNeverDelivers(t *testing.T) {
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 10, Y: 0}
	m, f := newTestMedium(7, src, dst)
	out := unicast(m, f, 1, 2, src, dst, 0, false)
	if out.Delivered || out.Acked {
		t.Errorf("delivered to a down receiver: %v", out)
	}
	if out.Attempts != MaxRetries {
		t.Errorf("attempts = %d, want MaxRetries=%d", out.Attempts, MaxRetries)
	}
	if out.NoAckRetries != MaxRetries-1 {
		t.Errorf("NoAckRetries = %d, want %d", out.NoAckRetries, MaxRetries-1)
	}
}

func TestUnicastFarLinkFails(t *testing.T) {
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 5000, Y: 0}
	m, f := newTestMedium(8, src, dst)
	var acked int
	for i := 0; i < 100; i++ {
		out := unicast(m, f, 1, 2, src, dst, 0, true)
		if out.Acked {
			acked++
		}
	}
	if acked > 2 {
		t.Errorf("%d/100 unicasts acked on a 5km link at -25dBm", acked)
	}
}

func TestUnicastContentionCausesBackoffs(t *testing.T) {
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 15, Y: 0}
	m, f := newTestMedium(9, src, dst)
	var quiet, busy int
	const n = 400
	for i := 0; i < n; i++ {
		quiet += unicast(m, f, 1, 2, src, dst, 0, true).Backoffs
		busy += unicast(m, f, 1, 2, src, dst, 0.8, true).Backoffs
	}
	if busy <= quiet {
		t.Errorf("contention backoffs (%d) should exceed quiet backoffs (%d)", busy, quiet)
	}
}

func TestUnicastContentionIncreasesRetries(t *testing.T) {
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 20, Y: 0}
	m, f := newTestMedium(10, src, dst)
	var quiet, busy int
	const n = 400
	for i := 0; i < n; i++ {
		quiet += unicast(m, f, 1, 2, src, dst, 0, true).NoAckRetries
		busy += unicast(m, f, 1, 2, src, dst, 0.9, true).NoAckRetries
	}
	if busy <= quiet {
		t.Errorf("contention retries (%d) should exceed quiet retries (%d)", busy, quiet)
	}
}

func TestUnicastDuplicatesWhenAckLost(t *testing.T) {
	// A marginal link with contention loses ACKs while some data frames get
	// through, which must register duplicates over enough trials.
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 28, Y: 0}
	m, f := newTestMedium(11, src, dst)
	var dups int
	for i := 0; i < 2000; i++ {
		dups += unicast(m, f, 1, 2, src, dst, 0.5, true).Duplicates
	}
	if dups == 0 {
		t.Error("no duplicates generated on a lossy contended link in 2000 exchanges")
	}
}

func TestDegradeLinkReducesDelivery(t *testing.T) {
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 15, Y: 0}
	m, f := newTestMedium(12, src, dst)
	const n = 300
	acked := func() int {
		var c int
		for i := 0; i < n; i++ {
			if unicast(m, f, 1, 2, src, dst, 0, true).Acked {
				c++
			}
		}
		return c
	}
	before := acked()
	m.DegradeLink(1, 2, 40)
	after := acked()
	if after >= before {
		t.Errorf("degraded link acked %d ≥ %d before degradation", after, before)
	}
}

func TestMediumDeterministic(t *testing.T) {
	run := func() []TxOutcome {
		field := env.New(env.Config{Seed: 5})
		src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 22, Y: 0}
		m := NewMedium(Config{Seed: 5})
		m.SetTopology([]env.Position{{}, src, dst})
		var outs []TxOutcome
		for i := 0; i < 50; i++ {
			if err := field.Advance(time.Minute); err != nil {
				t.Fatalf("Advance: %v", err)
			}
			outs = append(outs, unicast(m, field, 1, 2, src, dst, 0.3, true))
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("radio not deterministic at exchange %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTxOutcomeString(t *testing.T) {
	s := TxOutcome{Delivered: true, Acked: true, Attempts: 2, NoAckRetries: 1}.String()
	if !containsAll(s, "delivered=true", "attempts=2", "noack=1") {
		t.Errorf("String() = %q", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestUnicastContentionClamped(t *testing.T) {
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 10, Y: 0}
	m, f := newTestMedium(13, src, dst)
	// Out-of-range contention must not panic or produce nonsense.
	out := unicast(m, f, 1, 2, src, dst, 5, true)
	if out.Attempts < 1 || out.Attempts > MaxRetries {
		t.Errorf("attempts = %d out of range", out.Attempts)
	}
	out = unicast(m, f, 1, 2, src, dst, -3, true)
	if out.Attempts < 1 {
		t.Errorf("attempts = %d", out.Attempts)
	}
}

func TestPRRZeroNoiseBoundary(t *testing.T) {
	m, _ := newTestMedium(14)
	// Exactly at sensitivity: PRR should be finite and in range.
	prr := m.PRR(-96+1e-9, -98)
	if math.IsNaN(prr) || prr < 0 || prr > 1 {
		t.Errorf("PRR at sensitivity boundary = %v", prr)
	}
}

func TestWithDefaultsZeroSentinel(t *testing.T) {
	got := Config{}.WithDefaults()
	want := Config{
		TxPower:          DefaultTxPower,
		PathLossExponent: DefaultPathLossExponent,
		ReferenceLoss:    DefaultReferenceLoss,
		ShadowingSigma:   DefaultShadowingSigma,
		SensitivityDBM:   DefaultSensitivityDBM,
	}
	if got != want {
		t.Errorf("zero config resolved to %+v, want defaults %+v", got, want)
	}
	// The regression this guards: an explicit zero must survive resolution
	// instead of being silently replaced by the default.
	z := Config{ShadowingSigma: Zero, TxPower: Zero}.WithDefaults()
	if z.ShadowingSigma != 0 {
		t.Errorf("ShadowingSigma: Zero resolved to %v, want exact 0", z.ShadowingSigma)
	}
	if z.TxPower != 0 {
		t.Errorf("TxPower: Zero resolved to %v, want exact 0", z.TxPower)
	}
	// Explicit non-zero values pass through untouched.
	v := Config{ShadowingSigma: 1.25}.WithDefaults()
	if v.ShadowingSigma != 1.25 {
		t.Errorf("explicit sigma resolved to %v", v.ShadowingSigma)
	}
}

func TestZeroSigmaDeterministicLink(t *testing.T) {
	// With the sentinel, a shadowing-free medium has rxBase equal to the
	// pure log-distance budget for every link.
	m := NewMedium(Config{Seed: 3, ShadowingSigma: Zero})
	m.SetTopology([]env.Position{{}, {X: 0, Y: 0}, {X: 10, Y: 0}})
	cfg := m.cfg
	want := cfg.TxPower - cfg.ReferenceLoss - 10*cfg.PathLossExponent*math.Log10(10)
	if got := m.meanRSSI(1, 2); got != want {
		t.Errorf("mean RSSI with zero shadowing = %v, want %v", got, want)
	}
}

func TestLinkDrawsIndependent(t *testing.T) {
	// The outcome on link 1→2 must not depend on whether link 3→4 also
	// transmitted — the property the shared-rand design lacked.
	src, dst := env.Position{X: 0, Y: 0}, env.Position{X: 22, Y: 0}
	other, far := env.Position{X: 40, Y: 0}, env.Position{X: 60, Y: 0}
	run := func(interleave bool) []TxOutcome {
		f := env.New(env.Config{Seed: 21})
		m := NewMedium(Config{Seed: 21})
		m.SetTopology([]env.Position{{}, src, dst, other, far})
		var outs []TxOutcome
		for i := 0; i < 40; i++ {
			if interleave {
				unicast(m, f, 3, 4, other, far, 0.2, true)
			}
			outs = append(outs, unicast(m, f, 1, 2, src, dst, 0.2, true))
		}
		return outs
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link 1→2 exchange %d changed because link 3→4 transmitted: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSetTopologyMatchesAdhoc(t *testing.T) {
	// The dense cache must agree with the on-the-fly computation, on a
	// medium that never had a topology.
	pos := []env.Position{{X: 0, Y: 0}, {X: 15, Y: 0}, {X: 30, Y: 20}}
	cached := NewMedium(Config{Seed: 31})
	cached.SetTopology(pos)
	plain := NewMedium(Config{Seed: 31})
	for a := range pos {
		for b := range pos {
			if a == b {
				continue
			}
			if got, want := cached.meanRSSI(a, b), plain.computeRxBase(a, b, pos[a], pos[b]); got != want {
				t.Errorf("cached rxBase(%d,%d) = %v, computeRxBase = %v", a, b, got, want)
			}
		}
	}
}

func TestDegradeLinkInvalidatesCache(t *testing.T) {
	pos := []env.Position{{X: 0, Y: 0}, {X: 15, Y: 0}}
	m := NewMedium(Config{Seed: 32})
	m.SetTopology(pos)
	before := m.meanRSSI(0, 1)
	m.DegradeLink(0, 1, 25)
	if got := m.meanRSSI(0, 1); got != before-25 {
		t.Errorf("degraded cached link = %v, want %v", got, before-25)
	}
	if got := m.meanRSSI(1, 0); got != before-25 {
		t.Errorf("reverse direction = %v, want symmetric degradation %v", got, before-25)
	}
	// Degradation survives a topology rebuild.
	m.SetTopology(pos)
	if got := m.meanRSSI(0, 1); got != before-25 {
		t.Errorf("rebuild dropped degradation: %v, want %v", got, before-25)
	}
}

func TestInRangeExact(t *testing.T) {
	// InRange must be exactly the "PRR can be nonzero" predicate: an
	// out-of-range link never receives even the luckiest fade.
	m := NewMedium(Config{Seed: 34})
	for d := 10.0; d < 2000; d *= 1.5 {
		m.SetTopology([]env.Position{{}, {X: 0, Y: 0}, {X: d, Y: 0}})
		if m.InRange(1, 2) {
			continue
		}
		// Even with the maximum fade the RSSI stays below sensitivity.
		if best := m.meanRSSI(1, 2) + FadeClampDB; best >= m.cfg.SensitivityDBM {
			t.Errorf("d=%v: InRange=false but best-case RSSI %v ≥ sensitivity", d, best)
		}
	}
}

func TestMaxRangeCoversInRange(t *testing.T) {
	cfg := Config{Seed: 35}
	m := NewMedium(cfg)
	limit := cfg.MaxRange()
	// Any in-range link must be within MaxRange, for every shadowing draw:
	// nodes alternate between the two ends, so each link a→a+1 spans d.
	pos := make([]env.Position, 41)
	for d := limit * 0.5; d < limit*2; d *= 1.05 {
		for i := 1; i < len(pos); i += 2 {
			pos[i].X = d
		}
		m.SetTopology(pos)
		for a := 0; a < 40; a++ {
			if m.InRange(a, a+1) && d > limit {
				t.Fatalf("link at d=%v in range beyond MaxRange=%v", d, limit)
			}
		}
	}
}

func TestBeaconDeterministicPerEpoch(t *testing.T) {
	pos := []env.Position{{X: 0, Y: 0}, {X: 15, Y: 0}}
	m := NewMedium(Config{Seed: 36})
	m.SetTopology(pos)
	m.BeginEpoch(4)
	r1, h1 := m.Beacon(0, 1, -98)
	r2, h2 := m.Beacon(0, 1, -98)
	if r1 != r2 || h1 != h2 {
		t.Error("beacon draw not a pure function of (epoch, link)")
	}
	m.BeginEpoch(5)
	r3, _ := m.Beacon(0, 1, -98)
	if r3 == r1 {
		t.Error("beacon fade identical across epochs")
	}
}

// TestHoistedKeysMatchFullKeys holds Beacon and UnicastNoise to the draws
// they made when each hashed its whole (seed, epoch, stream, a, b[, seq])
// key per call and Beacon always took its reception draw: links from strong
// to far below sensitivity, several epochs, repeated exchanges per link.
func TestHoistedKeysMatchFullKeys(t *testing.T) {
	pos := []env.Position{{}, {X: 12}, {X: 30, Y: 5}, {X: 70}, {X: 160, Y: 40}, {X: 900}}
	m := NewMedium(Config{Seed: 41, TxPower: -5})
	m.SetTopology(pos)
	seed := rng.I(41)
	for epoch := 1; epoch <= 6; epoch++ {
		m.BeginEpoch(epoch)
		for a := range pos {
			for b := range pos {
				if a == b {
					continue
				}
				s := rng.New(seed, rng.I(epoch), streamBeacon, rng.I(a), rng.I(b))
				wantRSSI := m.meanRSSI(a, b) + fade(&s)
				wantHeard := s.Float64() < m.PRR(wantRSSI, -97)
				if rssi, heard := m.Beacon(a, b, -97); rssi != wantRSSI || heard != wantHeard {
					t.Fatalf("epoch %d beacon %d→%d = (%v, %v), full key gives (%v, %v)", epoch, a, b, rssi, heard, wantRSSI, wantHeard)
				}
				for seq := uint64(0); seq < 3; seq++ {
					want := oracleUnicast(m, a, b, epoch, seq, 0.3, -97, -96)
					if got := m.UnicastNoise(a, b, 0.3, true, -97, -96); got != want {
						t.Fatalf("epoch %d unicast %d→%d #%d = %v, full key gives %v", epoch, a, b, seq, got, want)
					}
				}
			}
		}
	}
}

// oracleUnicast is UnicastNoise (receiver up) as it stood when it hashed
// the full six-part key for every exchange.
func oracleUnicast(m *Medium, a, b, epoch int, seq uint64, contention, noiseRx, noiseTx float64) TxOutcome {
	var out TxOutcome
	s := rng.New(rng.I(int(m.cfg.Seed)), rng.I(epoch), streamUnicast, rng.I(a), rng.I(b), seq)
	fwdBase, revBase := m.meanRSSI(a, b), m.meanRSSI(b, a)
	for out.Attempts < MaxRetries {
		out.Attempts++
		if s.Float64() < contention {
			out.Backoffs++
		}
		rssi := fwdBase + fade(&s)
		prr := m.PRR(rssi, noiseRx) * (1 - 0.6*contention)
		if s.Float64() < prr {
			if out.Delivered {
				out.Duplicates++
			}
			out.Delivered = true
			ackRssi := revBase + fade(&s)
			ackPrr := math.Min(1, m.PRR(ackRssi, noiseTx)*(1-0.4*contention)*1.1)
			if s.Float64() < ackPrr {
				out.Acked = true
				out.NoAckRetries = out.Attempts - 1
				return out
			}
		}
	}
	out.NoAckRetries = out.Attempts - 1
	return out
}
