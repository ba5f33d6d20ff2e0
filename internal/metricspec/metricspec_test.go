package metricspec

import (
	"strings"
	"testing"
)

func TestRegistryHas43Metrics(t *testing.T) {
	all := All()
	if len(all) != MetricCount {
		t.Fatalf("len(All()) = %d, want %d", len(all), MetricCount)
	}
	if len(Names()) != MetricCount {
		t.Fatalf("len(Names()) = %d, want %d", len(Names()), MetricCount)
	}
}

func TestRegistryIDsSequential(t *testing.T) {
	for i, sp := range All() {
		if int(sp.ID) != i {
			t.Errorf("spec at position %d has ID %d", i, sp.ID)
		}
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := make(map[string]bool, MetricCount)
	for _, sp := range All() {
		if seen[sp.Name] {
			t.Errorf("duplicate metric name %q", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Name == "" || sp.Short == "" {
			t.Errorf("metric %d has empty name/short", sp.ID)
		}
	}
}

func TestPacketPartition(t *testing.T) {
	carried := map[Packet]int{}
	for _, sp := range specs {
		carried[sp.Packet]++
		if sp.Packet == PacketC2 && !strings.HasPrefix(sp.Name, "NeighborRssi") && !strings.HasPrefix(sp.Name, "NeighborEtx") {
			t.Errorf("unexpected C2 metric %q", sp.Name)
		}
	}
	if got := carried[PacketC1] + carried[PacketC2] + carried[PacketC3]; got != MetricCount {
		t.Fatalf("packet partition covers %d metrics, want %d", got, MetricCount)
	}
	if carried[PacketC2] != 2*MaxNeighbors {
		t.Errorf("C2 carries %d metrics, want %d", carried[PacketC2], 2*MaxNeighbors)
	}
}

func TestNeighborAccessors(t *testing.T) {
	if NeighborRSSI(0) != firstNeighborRssi {
		t.Error("NeighborRSSI(0) mismatch")
	}
	if NeighborETX(0) != firstNeighborRssi+MaxNeighbors {
		t.Error("NeighborETX(0) mismatch")
	}
	sp, err := Lookup(NeighborRSSI(4))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if sp.Name != "NeighborRssi5" {
		t.Errorf("NeighborRSSI(4) name = %q, want NeighborRssi5", sp.Name)
	}
	sp, err = Lookup(NeighborETX(9))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if sp.Name != "NeighborEtx10" {
		t.Errorf("NeighborETX(9) name = %q, want NeighborEtx10", sp.Name)
	}
}

func TestNeighborAccessorsPanicOutOfRange(t *testing.T) {
	for _, k := range []int{-1, MaxNeighbors} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NeighborRSSI(%d) did not panic", k)
				}
			}()
			NeighborRSSI(k)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NeighborETX(%d) did not panic", k)
				}
			}()
			NeighborETX(k)
		}()
	}
}

func TestLookupAndByName(t *testing.T) {
	sp, err := Lookup(NOACKRetransmitCounter)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if sp.Name != "NOACK_retransmit_counter" {
		t.Errorf("name = %q", sp.Name)
	}
	if sp.Packet != PacketC3 || sp.Kind != Counter || sp.Layer != Link {
		t.Errorf("NOACK spec = %+v", sp)
	}
	got, err := ByName("NOACK_retransmit_counter")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if got.ID != NOACKRetransmitCounter {
		t.Errorf("ByName ID = %d", got.ID)
	}
}

func TestLookupErrors(t *testing.T) {
	if _, err := Lookup(ID(-1)); err == nil {
		t.Error("Lookup(-1) succeeded")
	}
	if _, err := Lookup(ID(MetricCount)); err == nil {
		t.Error("Lookup(43) succeeded")
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName(nonexistent) succeeded")
	}
}

func TestByLayerCoversAll(t *testing.T) {
	monitoring := map[Layer]int{}
	for _, sp := range specs {
		monitoring[sp.Layer]++
	}
	if total := monitoring[Physical] + monitoring[Link] + monitoring[Network] + monitoring[Application]; total != MetricCount {
		t.Errorf("layer partition covers %d metrics, want %d", total, MetricCount)
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{PacketC1.String(), "C1"},
		{PacketC2.String(), "C2"},
		{PacketC3.String(), "C3"},
		{Packet(9).String(), "Packet(9)"},
		{Gauge.String(), "gauge"},
		{Counter.String(), "counter"},
		{Kind(9).String(), "Kind(9)"},
		{Physical.String(), "physical"},
		{Link.String(), "link"},
		{Network.String(), "network"},
		{Application.String(), "application"},
		{Layer(9).String(), "Layer(9)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestHazardCatalogMatchesTableI(t *testing.T) {
	cat := HazardCatalog()
	if len(cat) != 10 {
		t.Fatalf("Table I has %d rows, want 10", len(cat))
	}
	for i, h := range cat {
		if _, err := Lookup(h.Metric); err != nil {
			t.Errorf("row %d references unknown metric: %v", i, err)
		}
		if h.Event == "" || h.Performance == "" {
			t.Errorf("row %d incomplete", i)
		}
	}
}

func TestHazardsFor(t *testing.T) {
	hs := HazardsFor(LoopCounter)
	if len(hs) != 1 {
		t.Fatalf("HazardsFor(LoopCounter) = %d rows, want 1", len(hs))
	}
	if !strings.Contains(hs[0].Event, "loop") {
		t.Errorf("unexpected event %q", hs[0].Event)
	}
	if got := HazardsFor(Humidity); len(got) != 0 {
		t.Errorf("HazardsFor(Humidity) = %d rows, want 0", len(got))
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Name = "mutated"
	if All()[0].Name == "mutated" {
		t.Error("All() exposes internal registry")
	}
	h := HazardCatalog()
	h[0].Event = "mutated"
	if HazardCatalog()[0].Event == "mutated" {
		t.Error("HazardCatalog() exposes internal catalog")
	}
}
