package wsn

import (
	"fmt"

	"github.com/wsn-tools/vn2/internal/ctp"
	"github.com/wsn-tools/vn2/internal/packet"
)

// initialTTL bounds how many hops a data packet may travel; looped packets
// circulate until it expires, inflating the loop/duplicate/transmit
// counters exactly as Section IV-C describes.
const initialTTL = 16

// contentionPacketsPerSecond is the effective per-neighborhood channel
// share of a duty-cycled low-power MAC: a neighborhood can move roughly
// this many frames per second before CSMA pressure builds.
const contentionPacketsPerSecond = 20.0

// EpochResult summarizes one reporting epoch.
type EpochResult struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// Reports are the C1/C2/C3 report bundles that reached the sink.
	Reports []packet.Report
	// Generated is the number of data packets created this epoch.
	Generated int
	// Delivered is the number of unique data packets the sink received
	// this epoch. It may exceed Generated when a backlog queued in earlier
	// epochs drains (e.g. after a routing loop clears).
	Delivered int
	// DeliveredCurrent is the subset of Delivered that was also generated
	// this epoch; structurally ≤ Generated because the sink deduplicates
	// by packet identity.
	DeliveredCurrent int
	// PRR is DeliveredCurrent/Generated for the epoch (1 when nothing was
	// generated): the fraction of this epoch's traffic that made it to the
	// sink within the epoch.
	PRR float64
}

// Step advances the simulation by one reporting epoch.
func (n *Network) Step() (*EpochResult, error) {
	n.epoch++
	if err := n.field.Advance(n.cfg.ReportInterval); err != nil {
		return nil, fmt.Errorf("advance environment: %w", err)
	}
	n.medium.BeginEpoch(n.epoch)

	res := &EpochResult{Epoch: n.epoch}
	for i := range n.epochDelivered {
		n.epochDelivered[i] = false
	}
	n.sampleNoise()

	n.agePower()
	n.beaconPhase()
	n.routingPhase()
	res.Generated, res.Delivered, res.DeliveredCurrent = n.trafficPhase()
	n.collectReports(res)
	n.accountEnergy()

	if res.Generated > 0 {
		res.PRR = float64(res.DeliveredCurrent) / float64(res.Generated)
	} else {
		res.PRR = 1
	}
	return res, nil
}

// Run executes count epochs, returning their results.
func (n *Network) Run(count int) ([]*EpochResult, error) {
	out := make([]*EpochResult, 0, count)
	for i := 0; i < count; i++ {
		r, err := n.Step()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// sampleNoise caches each node's noise floor for the epoch, so every phase
// reads the same per-node value instead of re-querying per link.
func (n *Network) sampleNoise() {
	for i, nd := range n.nodes {
		n.noise[i] = n.field.NoiseFloor(nd.pos)
	}
}

// agePower advances uptime, applies spontaneous reboots, and fails nodes
// whose battery crossed the threshold.
func (n *Network) agePower() {
	for _, nd := range n.nodes[1:] {
		if !nd.up {
			continue
		}
		nd.uptime += n.cfg.ReportInterval
		if nd.voltage < n.cfg.VoltageFailThreshold {
			nd.fail()
			n.record(Event{Epoch: n.epoch, Type: EventEnergyDepleted, Node: nd.id})
			continue
		}
		if n.cfg.RandomRebootProb > 0 && n.rng.Float64() < n.cfg.RandomRebootProb {
			nd.reboot()
			n.record(Event{Epoch: n.epoch, Type: EventReboot, Node: nd.id})
		}
	}
}

// beaconPhase broadcasts one routing beacon per up node; receivers within
// range probabilistically hear it and refresh their routing tables. The
// phase is inverted over receivers, each reading a pre-phase snapshot of
// the advertised path-ETX values. Beacon draws are keyed by (epoch, link),
// so a receiver iterates only its pruned candidate list without moving any
// other link's draws.
func (n *Network) beaconPhase() {
	for i, nd := range n.nodes {
		if !nd.up {
			continue
		}
		if nd.isSink() {
			n.adv[i] = 0
		} else {
			n.adv[i] = nd.table.PathETX()
		}
		nd.ctr.beacon++
		nd.epochTx++
	}
	for j := 1; j < len(n.nodes); j++ {
		rx := n.nodes[j]
		if !rx.up {
			continue
		}
		noise := n.noise[j]
		// Link lists are symmetric (path loss, shadowing and injected
		// degradation all are), so j's outbound list is also its inbound
		// sender list.
		for _, i := range n.candidates[j] {
			tx := n.nodes[i]
			if !tx.up {
				continue
			}
			rssi, heard := n.medium.Beacon(i, j, noise)
			if heard {
				// Hearing our own beacon is impossible by construction
				// (lists exclude self), so the error is unreachable.
				_ = rx.table.HearBeacon(tx.id, rssi, n.adv[i])
			}
		}
	}
}

// routingPhase ages tables and re-selects parents. Each node mutates only
// its own routing table and consumes no shared randomness.
func (n *Network) routingPhase() {
	for _, nd := range n.nodes[1:] {
		if !nd.up {
			continue
		}
		nd.table.Tick(n.cfg.NeighborStaleEpochs)
		nd.table.SelectParent()
	}
}

// pendingInject is one scheduled self-generated packet.
type pendingInject struct {
	node *node
	pkt  dataPacket
}

// delivery is the receiver-side effect of one transmission, recorded during
// the transmit sub-phase and applied in the apply sub-phase: rx is nil when
// nothing reached a receiver. attempted distinguishes a node that used the
// channel from one that sat on a packet without a route.
type delivery struct {
	rx        *node
	pkt       dataPacket
	dups      int
	attempted bool
}

// trafficPhase generates the epoch's self traffic on a staggered schedule
// and forwards it hop-by-hop across fine-grained channel passes. In each
// pass a node transmits at most one queued packet — the CSMA fair-share a
// mote gets of the channel — so queues only back up when a genuine
// bottleneck (loop, contention, dead parent) forms, not as an artifact of
// batch processing.
//
// Each pass runs in two sub-phases: transmit, where every active sender
// performs its unicast exchange against the pre-pass network state
// (sender-local writes only), and apply, where the recorded deliveries
// mutate receiver queues in sender order. A packet
// therefore advances at most one hop per pass; the pass budget's slack
// covers the pipeline depth.
func (n *Network) trafficPhase() (generated, delivered, deliveredCurrent int) {
	passes := n.passesPerEpoch()
	injectWindow := passes * 3 / 4
	if injectWindow < 1 {
		injectWindow = 1
	}

	if len(n.schedule) < passes {
		n.schedule = make([][]pendingInject, passes)
	}
	schedule := n.schedule
	for i := range schedule {
		schedule[i] = schedule[i][:0]
	}
	remaining := 0
	for _, nd := range n.nodes[1:] {
		if !nd.up {
			continue
		}
		packets := n.cfg.PacketsPerEpoch + n.clockSkewDelta(nd)
		for k := 0; k < packets; k++ {
			p := dataPacket{origin: nd.id, incarnation: nd.incarnation, seq: nd.seq, ttl: initialTTL, genEpoch: n.epoch}
			nd.seq++
			generated++
			// Deterministic stagger: spread each node's packets across the
			// injection window, offset by node ID.
			pass := (int(nd.id)*37 + k*injectWindow/n.cfg.PacketsPerEpoch) % injectWindow
			schedule[pass] = append(schedule[pass], pendingInject{node: nd, pkt: p})
			remaining++
		}
	}

	n.computeContention()
	// The transmit rotation carries across epochs (a backlog queued last
	// epoch keeps draining); drop senders that failed, rebooted or drained
	// since the last pass.
	n.compactActive()
	totals := trafficTotals{}
	for pass := 0; pass < passes; pass++ {
		for _, pd := range schedule[pass] {
			pd.node.enqueue(pd.pkt, n.cfg.QueueCapacity)
			n.markActive(pd.node)
			remaining--
		}
		progress := len(schedule[pass]) > 0
		if len(n.active) > 0 {
			if n.transmitPass() {
				progress = true
			}
			n.applyPass(&totals)
			n.compactActive()
		}
		if !progress && remaining == 0 {
			break
		}
	}
	return generated, totals.delivered, totals.deliveredCurrent
}

// trafficTotals accumulates sink-side delivery counts for one epoch.
type trafficTotals struct {
	delivered        int
	deliveredCurrent int
}

// markActive adds a node to the transmit rotation if it has queued traffic
// and is eligible to send.
func (n *Network) markActive(nd *node) {
	i := int(nd.id)
	if n.inActive[i] || !nd.up || nd.isSink() || nd.qlen() == 0 {
		return
	}
	n.inActive[i] = true
	n.active = append(n.active, i)
}

// compactActive drops drained or downed senders from the rotation,
// preserving order.
func (n *Network) compactActive() {
	kept := n.active[:0]
	for _, i := range n.active {
		nd := n.nodes[i]
		if nd.up && nd.qlen() > 0 {
			kept = append(kept, i)
		} else {
			n.inActive[i] = false
		}
	}
	n.active = kept
}

// transmitPass runs the transmit sub-phase: every active sender pops its
// head-of-line packet and performs the unicast exchange. All writes are
// sender-local (queue, counters, link estimator, per-link draw sequence);
// receiver effects are recorded in n.intents for the apply. Reports whether
// any sender used the channel.
func (n *Network) transmitPass() bool {
	n.intents = n.intents[:0]
	attempted := false
	for _, i := range n.active {
		d := n.transmitOne(n.nodes[i])
		attempted = attempted || d.attempted
		n.intents = append(n.intents, d)
	}
	return attempted
}

// transmitOne sends nd's head-of-line packet toward its parent and returns
// the receiver-side effect to apply.
func (n *Network) transmitOne(nd *node) delivery {
	parentID := nd.parent()
	if parentID == ctp.NoParent || int(parentID) >= len(n.nodes) {
		return delivery{}
	}
	parent := n.nodes[parentID]
	p := nd.qpop()
	p.ttl--
	if p.ttl <= 0 {
		nd.ctr.dropPacket++
		return delivery{attempted: true}
	}
	out := n.medium.UnicastNoise(int(nd.id), int(parentID),
		n.contention[nd.id], parent.up, n.noise[parentID], n.noise[nd.id])
	nd.ctr.transmit += uint32(out.Attempts)
	nd.ctr.noackRetransmit += uint32(out.NoAckRetries)
	nd.ctr.macBackoff += uint32(out.Backoffs)
	nd.epochTx += out.Attempts
	if p.origin == nd.id {
		nd.ctr.selfTransmit++
	} else {
		nd.ctr.forward++
	}
	nd.markSent(p)
	// Feed the link estimator; a forced parent may be absent from the
	// routing table, which is fine to ignore.
	_ = nd.table.ReportTx(parentID, out.Acked, out.Attempts)
	if !out.Acked {
		nd.ctr.dropPacket++
	}
	if out.Delivered && parent.up {
		return delivery{rx: parent, pkt: p, dups: out.Duplicates, attempted: true}
	}
	return delivery{attempted: true}
}

// applyPass applies the recorded deliveries in sender order.
func (n *Network) applyPass(totals *trafficTotals) {
	for k := range n.intents {
		d := &n.intents[k]
		if d.rx != nil {
			n.receive(d.rx, d.pkt, d.dups, totals)
		}
	}
}

// clockSkewDelta implements the Table I temperature hazard: an unstable
// hardware clock makes a hot or cold node send too fast (+1 packet) or too
// slow (−1), with probability proportional to its temperature deviation.
func (n *Network) clockSkewDelta(nd *node) int {
	if n.cfg.ClockSkewPerDegree <= 0 {
		return 0
	}
	dev := n.field.Temperature(nd.pos) - 25
	if dev < 0 {
		dev = -dev
	}
	p := n.cfg.ClockSkewPerDegree * dev
	if p <= 0 || n.rng.Float64() >= p {
		return 0
	}
	// Fast and slow clocks are equally likely; a slow clock cannot push
	// generation below zero.
	if n.rng.Float64() < 0.5 && n.cfg.PacketsPerEpoch > 0 {
		return -1
	}
	return 1
}

// passesPerEpoch sizes the channel: enough passes for every packet to
// transit the sink-adjacent bottleneck once, plus slack for retries and
// multi-hop pipelines.
func (n *Network) passesPerEpoch() int {
	if n.cfg.MaxForwardRounds > 0 {
		return n.cfg.MaxForwardRounds
	}
	return (len(n.nodes)-1)*n.cfg.PacketsPerEpoch + 50
}

// markSent records that nd transmitted packet p, enabling loop detection
// when the same packet comes back.
func (nd *node) markSent(p dataPacket) {
	nd.seen.remember(p.key(), seenTx)
}

// receive processes a delivery at the parent (or sink).
func (n *Network) receive(rx *node, p dataPacket, extraCopies int, totals *trafficTotals) {
	rx.ctr.receive++
	rx.ctr.duplicate += uint32(extraCopies)
	key := p.key()
	switch flags := rx.seen.get(key); {
	case flags&seenTx != 0:
		// The node already forwarded this packet and it came back: a
		// routing loop. Count it and keep it circulating (TTL bounds it).
		rx.ctr.loop++
		rx.ctr.duplicate++
		rx.enqueue(p, n.cfg.QueueCapacity)
		n.markActive(rx)
	case flags&seenRx != 0:
		// A retransmission duplicate (our ACK was lost earlier); absorb it.
		rx.ctr.duplicate++
	default:
		rx.seen.remember(key, seenRx)
		if rx.isSink() {
			totals.delivered++
			if p.genEpoch == n.epoch {
				totals.deliveredCurrent++
			}
			n.epochDelivered[p.origin] = true
		} else {
			rx.enqueue(p, n.cfg.QueueCapacity)
			n.markActive(rx)
		}
	}
}

// computeContention derives each node's channel contention in [0,1] from
// its contention neighborhood's transmission attempts last epoch, relative
// to the epoch's channel capacity. The neighborhood is the full
// maximum-range set — every transmitter a node's radio can possibly hear —
// so the values do not depend on link pruning.
func (n *Network) computeContention() {
	capacity := contentionPacketsPerSecond * n.cfg.ReportInterval.Seconds()
	for i := range n.nodes {
		total := n.perEpochTx[i]
		for _, j := range n.contenders[i] {
			total += n.perEpochTx[j]
		}
		c := float64(total) / capacity
		if c > 1 {
			c = 1
		}
		n.contention[i] = c
	}
}

// collectReports assembles the epoch's report bundles. A node's report
// reaches the sink when at least one of its self-generated packets was
// delivered this epoch — report traffic rides the same lossy collection
// tree as everything else. Reports come out ascending by node: nodes is
// indexed by node ID.
func (n *Network) collectReports(res *EpochResult) {
	count := 0
	for _, nd := range n.nodes[1:] {
		if nd.up && n.epochDelivered[nd.id] {
			count++
		}
	}
	res.Reports = make([]packet.Report, 0, count)
	for _, nd := range n.nodes[1:] {
		if nd.up && n.epochDelivered[nd.id] {
			res.Reports = append(res.Reports, nd.buildReport(n.field))
		}
	}
}

// accountEnergy applies battery drain and radio-on time for the epoch's
// activity, then rolls the per-epoch transmission counters.
func (n *Network) accountEnergy() {
	const (
		txSecondsPerAttempt = 0.004
		idleDutyCycle       = 0.02
	)
	for i, nd := range n.nodes {
		if nd.up && !nd.isSink() {
			nd.voltage -= n.cfg.BaseDrainPerEpoch + n.cfg.TxDrainPerPacket*float64(nd.epochTx)
			nd.radioOn += float64(nd.epochTx)*txSecondsPerAttempt + idleDutyCycle*n.cfg.ReportInterval.Seconds()
		}
		n.perEpochTx[i] = nd.epochTx
		nd.epochTx = 0
	}
}
