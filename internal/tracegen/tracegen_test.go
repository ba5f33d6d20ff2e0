package tracegen

import (
	"math/rand"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/par"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/wsn"
)

// smallCitySee keeps unit tests fast: 40 nodes, 1 day.
func smallCitySee() CitySeeOptions {
	return CitySeeOptions{Seed: 7, Days: 1, Nodes: 40}
}

func TestCitySeeTrainingProducesData(t *testing.T) {
	res, err := CitySeeTraining(smallCitySee())
	if err != nil {
		t.Fatalf("CitySeeTraining: %v", err)
	}
	if res.Epochs != epochsPerDay {
		t.Errorf("Epochs = %d, want %d", res.Epochs, epochsPerDay)
	}
	if res.TotalNodes != 40 {
		t.Errorf("TotalNodes = %d", res.TotalNodes)
	}
	// Most reports should arrive in a healthy network.
	expected := res.Epochs * res.TotalNodes
	if got := res.Dataset.Len(); got < expected/3 {
		t.Errorf("only %d/%d reports collected", got, expected)
	}
	if len(res.PRR) != res.Epochs {
		t.Errorf("PRR series %d points, want %d", len(res.PRR), res.Epochs)
	}
	states := res.Dataset.States()
	if len(states) == 0 {
		t.Fatal("no state vectors derivable")
	}
}

func TestCitySeeTrainingDeterministic(t *testing.T) {
	a, err := CitySeeTraining(smallCitySee())
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := CitySeeTraining(smallCitySee())
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	if a.Dataset.Len() != b.Dataset.Len() {
		t.Fatalf("dataset sizes differ: %d vs %d", a.Dataset.Len(), b.Dataset.Len())
	}
	sa, sb := a.Dataset.States(), b.Dataset.States()
	for i := range sa {
		for k := range sa[i].Delta {
			if sa[i].Delta[k] != sb[i].Delta[k] {
				t.Fatalf("state %d metric %d differs", i, k)
			}
		}
	}
}

// TestCitySeeTrainingIdenticalAcrossWorkers is the determinism contract at
// the dataset level: traces generated on several goroutines at once — every
// report vector, every PRR point, every ground-truth event — are
// bit-identical to one generated alone, because all packet-level randomness
// is keyed per link, not drawn from a shared stream.
func TestCitySeeTrainingIdenticalAcrossWorkers(t *testing.T) {
	want, err := CitySeeTraining(smallCitySee())
	if err != nil {
		t.Fatalf("CitySeeTraining: %v", err)
	}
	for _, w := range []int{2, 4} {
		results := make([]*Result, w)
		if err := par.Run(w, w, func(_, start, end int) error {
			for k := start; k < end; k++ {
				res, err := CitySeeTraining(smallCitySee())
				if err != nil {
					return err
				}
				results[k] = res
			}
			return nil
		}); err != nil {
			t.Fatalf("CitySeeTraining(workers=%d): %v", w, err)
		}
		for _, got := range results {
			if got.Dataset.Len() != want.Dataset.Len() {
				t.Fatalf("workers=%d: dataset %d reports, want %d", w, got.Dataset.Len(), want.Dataset.Len())
			}
			for _, id := range want.Dataset.Nodes() {
				wr, gr := want.Dataset.Records(id), got.Dataset.Records(id)
				if len(wr) != len(gr) {
					t.Fatalf("workers=%d node %d: %d records, want %d", w, id, len(gr), len(wr))
				}
				for i := range wr {
					if wr[i].Epoch != gr[i].Epoch {
						t.Fatalf("workers=%d node %d record %d epoch differs", w, id, i)
					}
					for k := range wr[i].Vector {
						if wr[i].Vector[k] != gr[i].Vector[k] {
							t.Fatalf("workers=%d node %d record %d metric %d differs", w, id, i, k)
						}
					}
				}
			}
			for i := range want.PRR {
				if got.PRR[i] != want.PRR[i] {
					t.Fatalf("workers=%d: PRR point %d differs: %+v vs %+v", w, i, got.PRR[i], want.PRR[i])
				}
			}
			if len(got.Events) != len(want.Events) {
				t.Fatalf("workers=%d: %d events, want %d", w, len(got.Events), len(want.Events))
			}
			for i := range want.Events {
				if got.Events[i] != want.Events[i] {
					t.Fatalf("workers=%d: event %d differs: %+v vs %+v", w, i, got.Events[i], want.Events[i])
				}
			}
		}
	}
}

func TestCitySeeTrainingHasExceptions(t *testing.T) {
	res, err := CitySeeTraining(CitySeeOptions{Seed: 9, Days: 2, Nodes: 40})
	if err != nil {
		t.Fatalf("CitySeeTraining: %v", err)
	}
	states := res.Dataset.States()
	det, err := trace.DetectExceptions(states, 0)
	if err != nil {
		t.Fatalf("DetectExceptions: %v", err)
	}
	if len(det.Indices) == 0 {
		t.Error("no exceptions in a 2-day trace with background faults")
	}
	if len(det.Indices) == len(states) {
		t.Error("every state flagged as exception")
	}
}

func TestCitySeeSeptemberWindowDegradesPRR(t *testing.T) {
	res, window, err := CitySeeSeptember(CitySeeOptions{Seed: 11, Days: 4, Nodes: 40})
	if err != nil {
		t.Fatalf("CitySeeSeptember: %v", err)
	}
	if res.Epochs != 4*epochsPerDay {
		t.Errorf("Epochs = %d", res.Epochs)
	}
	// The window scales with the simulated span: 4 days → [1,2).
	if window.StartDay < 1 || window.EndDay <= window.StartDay || window.EndDay >= 4 {
		t.Errorf("window = %+v", window)
	}
}

func TestCitySeeSeptemberFullWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("full September trace in -short mode")
	}
	res, window, err := CitySeeSeptember(CitySeeOptions{Seed: 13, Days: 10, Nodes: 40})
	if err != nil {
		t.Fatalf("CitySeeSeptember: %v", err)
	}
	meanPRR := func(fromDay, toDay int) float64 {
		var sum float64
		var n int
		for _, p := range res.PRR {
			day := (p.Epoch - 1) / epochsPerDay
			if day >= fromDay && day < toDay {
				sum += p.PRR
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	healthy := meanPRR(1, window.StartDay)
	degraded := meanPRR(window.StartDay, window.EndDay)
	if degraded >= healthy {
		t.Errorf("window PRR %v not below healthy PRR %v", degraded, healthy)
	}
	// Ground truth should include failures and loops inside the window.
	var windowFails, windowLoops int
	for _, e := range res.Events {
		day := (e.Epoch - 1) / epochsPerDay
		if day >= window.StartDay && day < window.EndDay {
			switch e.Type {
			case wsn.EventFail:
				windowFails++
			case wsn.EventLoopInjected:
				windowLoops++
			}
		}
	}
	if windowFails == 0 || windowLoops == 0 {
		t.Errorf("window ground truth incomplete: %d fails, %d loops", windowFails, windowLoops)
	}
}

func TestTestbedRunsBothScenarios(t *testing.T) {
	for _, sc := range []Scenario{ScenarioLocal, ScenarioExpansive} {
		res, err := Testbed(TestbedOptions{Seed: 5, Scenario: sc})
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if res.Epochs != TestbedEpochs {
			t.Errorf("%v: epochs = %d", sc, res.Epochs)
		}
		if res.TotalNodes != 45 {
			t.Errorf("%v: nodes = %d", sc, res.TotalNodes)
		}
		fails := 0
		reboots := 0
		for _, e := range res.Events {
			switch e.Type {
			case wsn.EventFail:
				fails++
			case wsn.EventReboot:
				reboots++
			}
		}
		if fails < 10 {
			t.Errorf("%v: only %d failures injected", sc, fails)
		}
		if reboots < 3 {
			t.Errorf("%v: only %d reboots injected", sc, reboots)
		}
		if res.Dataset.Len() == 0 {
			t.Errorf("%v: empty dataset", sc)
		}
	}
}

func TestTestbedScenariosDiffer(t *testing.T) {
	local, err := Testbed(TestbedOptions{Seed: 6, Scenario: ScenarioLocal})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	exp, err := Testbed(TestbedOptions{Seed: 6, Scenario: ScenarioExpansive})
	if err != nil {
		t.Fatalf("expansive: %v", err)
	}
	// The two scenarios must fail different node sets.
	setOf := func(res *Result) map[int]bool {
		out := make(map[int]bool)
		for _, e := range res.Events {
			if e.Type == wsn.EventFail {
				out[int(e.Node)] = true
			}
		}
		return out
	}
	a, b := setOf(local), setOf(exp)
	same := true
	for k := range a {
		if !b[k] {
			same = false
		}
	}
	if same && len(a) == len(b) {
		t.Error("local and expansive scenarios failed identical node sets")
	}
}

func TestScenarioString(t *testing.T) {
	if ScenarioLocal.String() != "local" || ScenarioExpansive.String() != "expansive" {
		t.Error("Scenario.String mismatch")
	}
	if Scenario(9).String() != "Scenario(9)" {
		t.Error("unknown Scenario.String mismatch")
	}
}

func TestPickVictimsLocalContiguity(t *testing.T) {
	// Local victims must form a contiguous ID run (mod wraparound).
	victims := pickVictims(newRng(1), ScenarioLocal, 45, 6, nil)
	if len(victims) != 6 {
		t.Fatalf("victims = %d", len(victims))
	}
	for i := 1; i < len(victims); i++ {
		diff := (int(victims[i]) - int(victims[i-1]) + 45) % 45
		if diff != 1 {
			t.Errorf("local victims not contiguous: %v", victims)
			break
		}
	}
}

func TestPickVictimsExpansiveSpread(t *testing.T) {
	victims := pickVictims(newRng(2), ScenarioExpansive, 45, 6, nil)
	if len(victims) != 6 {
		t.Fatalf("victims = %d", len(victims))
	}
	// Spread: at least one pair further than 3 IDs apart.
	maxGap := 0
	for i := 1; i < len(victims); i++ {
		gap := int(victims[i]) - int(victims[i-1])
		if gap < 0 {
			gap = -gap
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	if maxGap < 4 {
		t.Errorf("expansive victims look clustered: %v", victims)
	}
}

func TestPickVictimsAvoidsDownNodes(t *testing.T) {
	down := []packet.NodeID{1, 2, 3, 4, 5}
	ids := pickVictims(newRng(3), ScenarioExpansive, 10, 4, down)
	if len(ids) != 4 {
		t.Fatalf("victims = %d, want 4", len(ids))
	}
	for _, id := range ids {
		for _, d := range down {
			if id == d {
				t.Errorf("victim %d already down", id)
			}
		}
	}
}

func newRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func TestTestbedEventTypesInDisjointEpochs(t *testing.T) {
	res, err := Testbed(TestbedOptions{Seed: 8, Scenario: ScenarioExpansive})
	if err != nil {
		t.Fatalf("Testbed: %v", err)
	}
	failEpochs := make(map[int]bool)
	rebootEpochs := make(map[int]bool)
	for _, e := range res.Events {
		switch e.Type {
		case wsn.EventFail:
			failEpochs[e.Epoch] = true
		case wsn.EventReboot:
			rebootEpochs[e.Epoch] = true
		}
	}
	if len(failEpochs) == 0 || len(rebootEpochs) == 0 {
		t.Fatalf("schedule missing an event type: %d fail epochs, %d reboot epochs",
			len(failEpochs), len(rebootEpochs))
	}
	for e := range failEpochs {
		if rebootEpochs[e] {
			t.Fatalf("epoch %d has both removal and put-back events; Fig 5g needs them separable", e)
		}
	}
}
