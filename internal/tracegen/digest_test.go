package tracegen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// digest hashes everything a generator returns: the dataset as WriteCSV
// renders it, every PRR point's bits and every ground-truth event.
func digest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	if err := res.Dataset.WriteCSV(h); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range res.PRR {
		put(uint64(p.Epoch))
		put(math.Float64bits(p.PRR))
	}
	for _, e := range res.Events {
		put(uint64(e.Epoch))
		put(uint64(e.Type))
		put(uint64(e.Node))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigests pins the generators' output bit for bit. The constants
// were produced at commit e868269 (the parent of the PR that made a
// simulator epoch cost its draws) and must not change unless the model —
// not its implementation — does.
func TestTraceDigests(t *testing.T) {
	training := func(o CitySeeOptions) func() (*Result, error) {
		return func() (*Result, error) { return CitySeeTraining(o) }
	}
	september := func(o CitySeeOptions) func() (*Result, error) {
		return func() (*Result, error) {
			res, _, err := CitySeeSeptember(o)
			return res, err
		}
	}
	testbed := func(o TestbedOptions) func() (*Result, error) {
		return func() (*Result, error) { return Testbed(o) }
	}
	cases := []struct {
		name string
		gen  func() (*Result, error)
		want string
	}{
		{"training/72/seed1", training(CitySeeOptions{Seed: 1, Days: 2, Nodes: 72}), "7b6c9dfb253868a59b390333ed85d55cf803ff76ffa3aa8efcaba83d69ffe436"},
		{"training/72/seed2", training(CitySeeOptions{Seed: 2, Days: 2, Nodes: 72}), "5ad5e9d09e21d8ac61407625420b9caadbb912ae13ab3e24d04c48c50517a2dc"},
		{"training/72/seed3", training(CitySeeOptions{Seed: 3, Days: 2, Nodes: 72}), "247ade88dd171098c6f8121063a6190dc9d832265a593961d4c7568e3664c1e4"},
		{"training/72/seed4", training(CitySeeOptions{Seed: 4, Days: 2, Nodes: 72}), "ee46cab567ab81ae300676311ad262dc820393e973e2b22553e49b2de498ac51"},
		{"september/72/seed1", september(CitySeeOptions{Seed: 1, Days: 4, Nodes: 72}), "70b021a6693e911fc4aee90dddb05142c5eb227a0dd0dc98e017818abdd57b46"},
		{"september/72/seed2", september(CitySeeOptions{Seed: 2, Days: 4, Nodes: 72}), "bafe4898fae516bff524bcb2141c84c2793f1decb3fdaefd6332099e6e4ebab3"},
		{"september/72/seed3", september(CitySeeOptions{Seed: 3, Days: 4, Nodes: 72}), "f5f2029b0bacb5d281b9fbb15050eea4e4417b067e3674433f2873be6fa771d2"},
		{"september/72/seed4", september(CitySeeOptions{Seed: 4, Days: 4, Nodes: 72}), "721832df5737d3f193c74dc36b8eb4b434aa1e4a643f44c7b0eb62e0ed63a0dd"},
		{"testbed/local", testbed(TestbedOptions{Seed: 1, Scenario: ScenarioLocal}), "05be54f8951d52a38a3a3fb05dc7b56d2c4a24cd8de49dfe68331abcdaff6703"},
		{"testbed/expansive", testbed(TestbedOptions{Seed: 1, Scenario: ScenarioExpansive}), "1ae24877fb85f008ef0ab10125441af5e8f5ec12042f1eb1d5208c97b03db4ce"},
		{"training/286", training(CitySeeOptions{Seed: 5, Days: 1}), "f1570c98e186f65a42e624dc1354d97afc9ad6fa89e209781596a4a7ec97d29a"},
	}
	for _, c := range cases {
		res, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := digest(t, res); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAllocsPerReport pins what a delivered report costs in allocations over
// a 72-node day, network construction included: the report's C2 entry slice
// and amortised shares of the epoch's report slice, the dataset's arenas and
// per-node record slices. It was 6.2 when report assembly copied the routing
// table twice, built each vector on the heap and reflection-sorted.
func TestAllocsPerReport(t *testing.T) {
	reports := 0
	allocs := testing.AllocsPerRun(1, func() {
		res, err := CitySeeTraining(CitySeeOptions{Seed: 1, Days: 1, Nodes: 72})
		if err != nil {
			t.Fatal(err)
		}
		reports = res.Dataset.Len()
	})
	if per := allocs / float64(reports); per > 1.5 {
		t.Errorf("%.0f allocations for %d reports = %.2f per report, want <= 1.5", allocs, reports, per)
	} else {
		t.Logf("%.2f allocations per report (%d reports)", per, reports)
	}
}
