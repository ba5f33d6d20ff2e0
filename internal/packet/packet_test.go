package packet

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/wsn-tools/vn2/internal/metricspec"
)

func sampleReport() Report {
	return Report{
		C1: C1{
			Node: 7, Seq: 42,
			Temperature: 23.5, Humidity: 61.25, Light: 310, Voltage: 2.95,
			PathETX: 4.5, PathLength: 3, RadioOnTime: 1234.5, NeighborNum: 4,
		},
		C2: C2{
			Node: 7, Seq: 42,
			Entries: []NeighborEntry{
				{Neighbor: 3, RSSI: -71.5, LinkETX: 1.25, PathETX: 3.5},
				{Neighbor: 9, RSSI: -80, LinkETX: 2, PathETX: 4},
			},
		},
		C3: C3{
			Node: 7, Seq: 42,
			ParentChange: 2, Transmit: 100, Receive: 80, SelfTransmit: 40,
			Forward: 60, OverflowDrop: 1, Loop: 0, NOACKRetransmit: 5,
			Duplicate: 3, DropPacket: 1, MacBackoff: 12, NoParent: 0,
			Beacon: 30, QueuePeak: 6, Uptime: 36000,
		},
	}
}

func TestC1RoundTrip(t *testing.T) {
	in := sampleReport().C1
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out C1
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestC1NegativeFixedPoint(t *testing.T) {
	in := C1{Node: 1, Temperature: -12.5, Voltage: 2.8}
	b, _ := in.MarshalBinary()
	var out C1
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out.Temperature != -12.5 {
		t.Errorf("Temperature = %v, want -12.5", out.Temperature)
	}
}

func TestC2RoundTrip(t *testing.T) {
	in := sampleReport().C2
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out C2
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out.Node != in.Node || out.Seq != in.Seq || len(out.Entries) != len(in.Entries) {
		t.Fatalf("round trip header/len mismatch: %+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, out.Entries[i], in.Entries[i])
		}
	}
}

func TestC2EmptyTable(t *testing.T) {
	in := C2{Node: 5, Seq: 1}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out C2
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(out.Entries) != 0 {
		t.Errorf("entries = %d, want 0", len(out.Entries))
	}
}

func TestC2TooManyNeighbors(t *testing.T) {
	in := C2{Entries: make([]NeighborEntry, metricspec.MaxNeighbors+1)}
	if _, err := in.MarshalBinary(); !errors.Is(err, ErrTooManyNeighbors) {
		t.Errorf("Marshal err = %v, want ErrTooManyNeighbors", err)
	}
}

func TestC3RoundTrip(t *testing.T) {
	in := sampleReport().C3
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out C3
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	r := sampleReport()
	b1, _ := r.C1.MarshalBinary()
	b2, _ := r.C2.MarshalBinary()
	b3, _ := r.C3.MarshalBinary()
	var c1 C1
	if err := c1.UnmarshalBinary(b1[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("C1 truncated err = %v", err)
	}
	var c2 C2
	if err := c2.UnmarshalBinary(b2[:len(b2)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("C2 truncated err = %v", err)
	}
	var c3 C3
	if err := c3.UnmarshalBinary(b3[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("C3 truncated err = %v", err)
	}
}

func TestUnmarshalWrongType(t *testing.T) {
	r := sampleReport()
	b1, _ := r.C1.MarshalBinary()
	var c2 C2
	if err := c2.UnmarshalBinary(b1); !errors.Is(err, ErrBadType) {
		t.Errorf("C2 from C1 bytes err = %v, want ErrBadType", err)
	}
	b3, _ := r.C3.MarshalBinary()
	var c1 C1
	if err := c1.UnmarshalBinary(b3); !errors.Is(err, ErrBadType) {
		t.Errorf("C1 from C3 bytes err = %v, want ErrBadType", err)
	}
}

func TestC2UnmarshalOverflowCount(t *testing.T) {
	in := C2{Node: 1, Entries: []NeighborEntry{{Neighbor: 2}}}
	b, _ := in.MarshalBinary()
	b[7] = metricspec.MaxNeighbors + 1 // forge the entry count
	var out C2
	if err := out.UnmarshalBinary(b); !errors.Is(err, ErrTooManyNeighbors) {
		t.Errorf("err = %v, want ErrTooManyNeighbors", err)
	}
}

func TestVectorLayout(t *testing.T) {
	r := sampleReport()
	v, err := r.Vector()
	if err != nil {
		t.Fatalf("Vector: %v", err)
	}
	if len(v) != metricspec.MetricCount {
		t.Fatalf("len = %d, want %d", len(v), metricspec.MetricCount)
	}
	if v[metricspec.Temperature] != 23.5 {
		t.Errorf("Temperature = %v", v[metricspec.Temperature])
	}
	if v[metricspec.Voltage] != 2.95 {
		t.Errorf("Voltage = %v", v[metricspec.Voltage])
	}
	if v[metricspec.NeighborRSSI(0)] != -71.5 {
		t.Errorf("RSSI1 = %v", v[metricspec.NeighborRSSI(0)])
	}
	if v[metricspec.NeighborETX(1)] != 2 {
		t.Errorf("ETX2 = %v", v[metricspec.NeighborETX(1)])
	}
	// Unused routing slots must read zero.
	if v[metricspec.NeighborRSSI(5)] != 0 || v[metricspec.NeighborETX(9)] != 0 {
		t.Error("empty routing slots are not zero")
	}
	if v[metricspec.NOACKRetransmitCounter] != 5 {
		t.Errorf("NARC = %v", v[metricspec.NOACKRetransmitCounter])
	}
	if v[metricspec.Uptime] != 36000 {
		t.Errorf("Uptime = %v", v[metricspec.Uptime])
	}
}

func TestVectorTooManyNeighbors(t *testing.T) {
	r := sampleReport()
	r.C2.Entries = make([]NeighborEntry, metricspec.MaxNeighbors+1)
	if _, err := r.Vector(); !errors.Is(err, ErrTooManyNeighbors) {
		t.Errorf("err = %v, want ErrTooManyNeighbors", err)
	}
}

// Property: the fixed-point wire codec is lossless to 1e-3 for values within
// the int32 milli-unit range.
func TestPropertyFixedPointRoundTrip(t *testing.T) {
	f := func(raw int32) bool {
		v := float64(raw) / 1000 // exactly representable milli-unit value
		in := C1{Temperature: v}
		b, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out C1
		if err := out.UnmarshalBinary(b); err != nil {
			return false
		}
		return math.Abs(out.Temperature-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: C3 round-trips exactly for arbitrary counter values.
func TestPropertyC3RoundTrip(t *testing.T) {
	f := func(a, b, c, d uint32, q uint8) bool {
		in := C3{Node: 3, Seq: a, Transmit: b, Receive: c, Duplicate: d, QueuePeak: q, Uptime: a ^ b}
		raw, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out C3
		if err := out.UnmarshalBinary(raw); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFixedPointSaturation pins the overflow contract: milli-values outside
// int32 saturate to ±FixedMax/FixedMin instead of wrapping through Go's
// implementation-specific float→int32 conversion. RadioOnTime is the field
// that hits this in production: a cumulative radio-on counter crosses
// 2147483.647 s after ~25 days.
func TestFixedPointSaturation(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want float64
	}{
		{"at max", FixedMax, FixedMax},
		{"at min", FixedMin, FixedMin},
		{"just past max", FixedMax + 0.001, FixedMax},
		{"just past min", FixedMin - 0.001, FixedMin},
		{"25 days of seconds", 2.2e6, FixedMax},
		{"huge counter", 1e12, FixedMax},
		{"huge negative", -1e12, FixedMin},
		{"max float", math.MaxFloat64, FixedMax},
		{"pos inf", math.Inf(1), FixedMax},
		{"neg inf", math.Inf(-1), FixedMin},
		{"nan", math.NaN(), 0},
		{"in range", 1234.5, 1234.5},
		{"in range negative", -987.654, -987.654},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := C1{Node: 1, RadioOnTime: tc.in}
			b, err := in.MarshalBinary()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			var out C1
			if err := out.UnmarshalBinary(b); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if math.Abs(out.RadioOnTime-tc.want) > 1e-9 {
				t.Errorf("RadioOnTime %v decoded as %v, want %v", tc.in, out.RadioOnTime, tc.want)
			}
		})
	}
}

// Property: no float64 input makes the fixed-point codec produce a decoded
// value outside [FixedMin, FixedMax], and in-range values still round-trip
// to the nearest milli.
func TestPropertyFixedPointSaturates(t *testing.T) {
	f := func(v float64) bool {
		in := C1{Temperature: v}
		b, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out C1
		if err := out.UnmarshalBinary(b); err != nil {
			return false
		}
		got := out.Temperature
		if got < FixedMin || got > FixedMax {
			return false
		}
		if !math.IsNaN(v) && v >= FixedMin && v <= FixedMax {
			return math.Abs(got-v) <= 0.0005+1e-9
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
