// Package radio models the PHY and MAC behaviour of a CC2420-class
// low-power radio: log-distance path loss with shadowing, an RSSI→PRR
// reception curve, CSMA backoff, link-layer ACKs and bounded retransmission.
//
// The model produces exactly the phenomena the VN2 counters observe:
// NOACK retransmissions when data or ACK frames are lost, duplicates when
// the data frame arrives but its ACK does not, backoffs under contention,
// and packet drops after the retry limit (30 in CitySee).
//
// # Randomness model
//
// All stochastic draws are counter-based (internal/rng): every transmission
// draws from a stream keyed by (seed, epoch, phase, link, sequence), never
// from a shared generator. Consequences the simulator relies on:
//
//   - a link's draws are independent of which other links transmit and of
//     the order links are evaluated in, so out-of-range links may be
//     skipped entirely without perturbing the surviving links' randomness;
//   - draws are bounded: fading never exceeds ±FadeClampDB and shadowing
//     never exceeds ±ShadowClampSigma·σ, so "below sensitivity even with
//     the maximum possible fade" is an exact zero-reception guarantee, not
//     a statistical one.
//
// # Link cache
//
// SetTopology precomputes a dense per-directed-link table of the
// deterministic received power (tx power − path loss + shadowing −
// injected attenuation), eliminating map lookups and math.Log10 from the
// per-transmission path. DegradeLink updates the affected entries in place.
//
// A draw's key is (seed, epoch, stream, a, b[, seq]) and rng.Key is a left
// fold, so BeginEpoch hashes the (seed, epoch, stream, a) prefix once per
// transmitter and each draw extends it (rng.Extend) by its own parts: the
// same key, bit for bit.
package radio

import (
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/rng"
)

// MaxRetries is the CitySee retransmission bound: "any packet is tried to
// sent out for 30 times at most".
const MaxRetries = 30

// Defaults for Config fields left at zero. A field can be forced to a true
// zero with the Zero sentinel.
const (
	// DefaultTxPower is CC2420 power level 2, about -25 dBm; testbeds use
	// low power to create multihop topologies.
	DefaultTxPower = -25.0
	// DefaultPathLossExponent for log-distance urban propagation.
	DefaultPathLossExponent = 2.7
	// DefaultReferenceLoss is the path loss at 1 m in dB.
	DefaultReferenceLoss = 30.0
	// DefaultShadowingSigma is log-normal shadowing in dB.
	DefaultShadowingSigma = 3.0
	// DefaultSensitivityDBM is the CC2420-class receive sensitivity floor.
	DefaultSensitivityDBM = -96.0
)

// Zero marks a Config field as "really zero". WithDefaults replaces
// zero-valued fields with their Default* constant, so a plain 0 cannot
// express values like "no shadowing"; set the field to Zero instead and
// WithDefaults maps it to exact 0. The sentinel is the smallest subnormal
// float — indistinguishable from 0 for every physical quantity in the
// model, and never a meaningful dB value.
const Zero = math.SmallestNonzeroFloat64

// defaulted resolves one Config field against its default.
func defaulted(v, def float64) float64 {
	switch v {
	case 0:
		return def
	case Zero:
		return 0
	default:
		return v
	}
}

// FadeClampDB bounds per-transmission fast fading. Draws come from a
// bounded-support normal (rng.NormMax σ) with σ = 1 dB, so no fade ever
// exceeds this; links whose deterministic budget is below sensitivity by
// more than FadeClampDB can never deliver a frame.
const FadeClampDB = rng.NormMax * fadeSigmaDB

// fadeSigmaDB is the fast-fading standard deviation in dB.
const fadeSigmaDB = 1.0

// ShadowClampSigma bounds the stable per-link shadowing draw in σ units:
// shadowing lies in [-ShadowClampSigma·σ, +ShadowClampSigma·σ]. Together
// with FadeClampDB it yields a finite maximum radio range for any
// configuration — the bound spatial indexes prune against.
const ShadowClampSigma = 3.0

// Config parametrizes the radio model.
type Config struct {
	// TxPower is the transmit power in dBm. Default DefaultTxPower.
	TxPower float64
	// PathLossExponent for log-distance propagation. Default
	// DefaultPathLossExponent.
	PathLossExponent float64
	// ReferenceLoss is the path loss at 1 m in dB. Default
	// DefaultReferenceLoss.
	ReferenceLoss float64
	// ShadowingSigma is log-normal shadowing in dB. Default
	// DefaultShadowingSigma; use Zero for a shadowing-free deterministic
	// link budget.
	ShadowingSigma float64
	// SensitivityDBM is the receive sensitivity floor. Default
	// DefaultSensitivityDBM.
	SensitivityDBM float64
	// Seed drives the per-transmission randomness.
	Seed int64
}

// WithDefaults resolves zero-valued fields to the package defaults (and
// Zero sentinels to true zeros). Exported so layers embedding a radio
// Config (the simulator's range planning) resolve identical values.
func (c Config) WithDefaults() Config {
	c.TxPower = defaulted(c.TxPower, DefaultTxPower)
	c.PathLossExponent = defaulted(c.PathLossExponent, DefaultPathLossExponent)
	c.ReferenceLoss = defaulted(c.ReferenceLoss, DefaultReferenceLoss)
	c.ShadowingSigma = defaulted(c.ShadowingSigma, DefaultShadowingSigma)
	c.SensitivityDBM = defaulted(c.SensitivityDBM, DefaultSensitivityDBM)
	return c
}

// MaxRange returns the distance beyond which no frame can ever be received
// under this configuration: even a maximally lucky shadowing and fading
// draw leaves the signal below sensitivity. Both draw families are bounded,
// so this is exact, not a confidence bound.
func (c Config) MaxRange() float64 {
	c = c.WithDefaults()
	budget := c.TxPower - c.ReferenceLoss + ShadowClampSigma*c.ShadowingSigma + FadeClampDB - c.SensitivityDBM
	return math.Pow(10, budget/(10*c.PathLossExponent))
}

// Stream phase tags keep the per-link draw families disjoint. They are key
// parts: a tag's value is part of every trace ever generated.
const (
	streamShadow uint64 = iota + 1
	_                   // 2 was a per-sample fade stream
	streamBeacon
	streamUnicast
)

// linkState is one directed link's cached state.
type linkState struct {
	// rxBase is the deterministic received power in dBm: tx power − path
	// loss + shadowing − injected attenuation. Fading is added per draw.
	rxBase float64
	// seq counts draw sessions (RSSI samples, unicast exchanges) on this
	// link within the current epoch; epoch tags it for lazy reset.
	seq   uint32
	epoch int32
}

// Medium simulates the shared wireless channel over the nodes SetTopology
// registered; every link-indexed method takes node indices below that
// count. Draws are counter-based per link, so what the read-side methods
// (PRR, Beacon, UnicastNoise) return for one link does not depend on which
// other links were evaluated before it. A Medium is not safe for concurrent
// use.
type Medium struct {
	cfg   Config
	epoch int

	// Dense per-link cache, built by SetTopology (links[a*n+b] is a→b).
	n     int
	links []linkState

	// beaconKey[a] and unicastKey[a] are this epoch's stream-key prefixes
	// (seed, epoch, stream, a), hashed once by BeginEpoch.
	beaconKey, unicastKey []uint64

	// degraded accumulates DegradeLink attenuation per directed link so a
	// topology rebuild preserves injected faults.
	degraded map[[2]int]float64
}

// NewMedium constructs a Medium; SetTopology gives it its nodes.
func NewMedium(cfg Config) *Medium {
	return &Medium{cfg: cfg.WithDefaults(), degraded: make(map[[2]int]float64)}
}

// SetTopology registers the node positions (index == node ID) and builds
// the dense per-link cache: path loss and shadowing are computed once per
// directed link instead of on every transmission. Previously injected
// DegradeLink attenuation is preserved.
func (m *Medium) SetTopology(positions []env.Position) {
	m.n = len(positions)
	m.links = make([]linkState, m.n*m.n)
	for a := 0; a < m.n; a++ {
		for b := 0; b < m.n; b++ {
			if a == b {
				continue
			}
			m.links[a*m.n+b].rxBase = m.computeRxBase(a, b, positions[a], positions[b])
		}
	}
	m.beaconKey = make([]uint64, m.n)
	m.unicastKey = make([]uint64, m.n)
	m.BeginEpoch(m.epoch)
}

// computeRxBase evaluates the deterministic link budget a→b.
func (m *Medium) computeRxBase(a, b int, src, dst env.Position) float64 {
	d := src.Distance(dst)
	if d < 1 {
		d = 1
	}
	pl := m.cfg.ReferenceLoss + 10*m.cfg.PathLossExponent*math.Log10(d)
	return m.cfg.TxPower - pl + m.linkShadow(a, b) - m.degraded[[2]int{a, b}]
}

// linkShadow returns the stable shadowing bias for the a→b link: a
// counter-based draw keyed by the undirected link, so it is symmetric (as
// physical obstructions are), independent of query order, and clamped to
// ±ShadowClampSigma·σ.
func (m *Medium) linkShadow(a, b int) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	s := rng.New(rng.I(int(m.cfg.Seed)), streamShadow, rng.I(lo), rng.I(hi))
	draw := s.NormFloat64()
	if draw > ShadowClampSigma {
		draw = ShadowClampSigma
	} else if draw < -ShadowClampSigma {
		draw = -ShadowClampSigma
	}
	return draw * m.cfg.ShadowingSigma
}

// BeginEpoch advances the medium to a new reporting epoch: subsequent
// draws are keyed by this epoch and per-link draw sequences restart (lazily,
// by their epoch tag).
func (m *Medium) BeginEpoch(epoch int) {
	m.epoch = epoch
	seed, e := rng.I(int(m.cfg.Seed)), rng.I(epoch)
	beacon, unicast := rng.Key(seed, e, streamBeacon), rng.Key(seed, e, streamUnicast)
	for a := range m.beaconKey {
		m.beaconKey[a] = rng.Extend(beacon, rng.I(a))
		m.unicastKey[a] = rng.Extend(unicast, rng.I(a))
	}
}

// nextSeq returns the link's draw-session sequence number for the current
// epoch and advances it.
func (m *Medium) nextSeq(st *linkState) uint32 {
	if st.epoch != int32(m.epoch) {
		st.epoch = int32(m.epoch)
		st.seq = 0
	}
	s := st.seq
	st.seq++
	return s
}

// InRange reports whether the a→b link can ever deliver a frame: its
// deterministic budget plus the maximum possible fade clears sensitivity.
// Fading is bounded, so out-of-range links have exactly zero reception
// probability — skipping them cannot change any outcome.
func (m *Medium) InRange(a, b int) bool {
	return m.links[a*m.n+b].rxBase+FadeClampDB >= m.cfg.SensitivityDBM
}

// fade draws one bounded fast-fading value from the stream.
func fade(s *rng.Stream) float64 {
	return s.NormFloat64() * fadeSigmaDB
}

// PRR maps an RSSI and local noise floor to a packet reception ratio via a
// logistic curve on SNR, the standard empirical CC2420 shape: near-zero
// below ~3 dB SNR, near-one above ~8 dB.
func (m *Medium) PRR(rssi, noiseFloor float64) float64 {
	if rssi < m.cfg.SensitivityDBM {
		return 0
	}
	snr := rssi - noiseFloor
	return 1 / (1 + math.Exp(-(snr-5.5)*1.3))
}

// Beacon simulates one broadcast beacon reception attempt on the a→b link
// against the receiver-side noise floor. Exactly one beacon per directed
// link per epoch is modelled; the draw is keyed by (epoch, a, b) alone, so
// receivers may evaluate their incoming links in any order. Below
// sensitivity PRR is 0 and no uniform in [0, 1) is under it, so the
// reception draw is not taken.
func (m *Medium) Beacon(a, b int, noiseFloor float64) (rssi float64, heard bool) {
	s := rng.At(rng.Extend(m.beaconKey[a], rng.I(b)))
	rssi = m.links[a*m.n+b].rxBase + fade(&s)
	if rssi < m.cfg.SensitivityDBM {
		return rssi, false
	}
	return rssi, s.Float64() < m.PRR(rssi, noiseFloor)
}

// DegradeLink adds a persistent attenuation (positive dB) to the a↔b link,
// used by fault injection to create link-degradation events. Repeated
// degradations accumulate. Cached entries are invalidated in place.
func (m *Medium) DegradeLink(a, b int, attenuationDB float64) {
	m.degraded[[2]int{a, b}] += attenuationDB
	m.degraded[[2]int{b, a}] += attenuationDB
	m.links[a*m.n+b].rxBase -= attenuationDB
	m.links[b*m.n+a].rxBase -= attenuationDB
}

// TxOutcome reports what happened to one link-layer unicast attempt
// sequence (up to MaxRetries tries).
type TxOutcome struct {
	// Delivered reports whether the receiver got at least one copy.
	Delivered bool
	// Acked reports whether the sender got an ACK (success from the
	// sender's point of view).
	Acked bool
	// Attempts is the number of transmissions performed (1..MaxRetries).
	Attempts int
	// NoAckRetries counts retransmissions caused by a missing ACK
	// (= Attempts-1 when the sequence ends, 0 on first-try success).
	NoAckRetries int
	// Duplicates counts extra copies the receiver accepted because a
	// data frame got through but its ACK was lost.
	Duplicates int
	// Backoffs counts CSMA backoff events under contention.
	Backoffs int
}

// UnicastNoise simulates a full link-layer unicast exchange from node a to
// node b, with channel contention level in [0,1] raising backoff and loss.
// rxUp reports whether the receiver is powered and able to accept frames; a
// down receiver yields pure NOACK retransmissions. The caller supplies the
// noise floors (noiseRx at the receiver, noiseTx at the sender, for the
// reverse-path ACK). The whole exchange — every retry, both directions —
// draws from one stream keyed by (seed, epoch, a, b, per-link sequence), so
// exchanges on different links never interact.
func (m *Medium) UnicastNoise(a, b int, contention float64, rxUp bool, noiseRx, noiseTx float64) TxOutcome {
	var out TxOutcome
	if contention < 0 {
		contention = 0
	}
	if contention > 1 {
		contention = 1
	}
	st := &m.links[a*m.n+b]
	s := rng.At(rng.Extend(m.unicastKey[a], rng.I(b), uint64(m.nextSeq(st))))
	fwdBase, revBase := st.rxBase, m.links[b*m.n+a].rxBase
	for out.Attempts < MaxRetries {
		out.Attempts++
		// CSMA: under contention the sender may back off before each try.
		if s.Float64() < contention {
			out.Backoffs++
		}
		rssi := fwdBase + fade(&s)
		// Contention also collides frames in the air.
		prr := m.PRR(rssi, noiseRx) * (1 - 0.6*contention)
		dataThrough := rxUp && s.Float64() < prr
		if dataThrough {
			if out.Delivered {
				out.Duplicates++
			}
			out.Delivered = true
			// ACK travels the reverse link; ACK frames are short, so give
			// them a small reliability edge.
			ackRssi := revBase + fade(&s)
			ackPrr := m.PRR(ackRssi, noiseTx) * (1 - 0.4*contention)
			ackPrr = math.Min(1, ackPrr*1.1)
			if s.Float64() < ackPrr {
				out.Acked = true
				out.NoAckRetries = out.Attempts - 1
				return out
			}
		}
		// No ACK: retry.
	}
	out.NoAckRetries = out.Attempts - 1
	return out
}

// String implements fmt.Stringer for debugging.
func (o TxOutcome) String() string {
	return fmt.Sprintf("TxOutcome{delivered=%t acked=%t attempts=%d noack=%d dup=%d backoff=%d}",
		o.Delivered, o.Acked, o.Attempts, o.NoAckRetries, o.Duplicates, o.Backoffs)
}
