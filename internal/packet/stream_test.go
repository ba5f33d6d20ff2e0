package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestStreamRespRoundTrip: every status, a few accepted counts, and the
// retry-after hint survive the 8-byte wire form exactly.
func TestStreamRespRoundTrip(t *testing.T) {
	for _, st := range []StreamStatus{StreamAck, StreamNackBad, StreamNackBusy, StreamNackUnavailable} {
		for _, n := range []int{0, 1, 64, MaxFrameRecords} {
			for _, ra := range []int{0, 1, 5, 255} {
				b := AppendStreamResp(nil, StreamResp{Status: st, Accepted: n, RetryAfter: ra})
				if len(b) != StreamRespLen {
					t.Fatalf("resp length %d, want %d", len(b), StreamRespLen)
				}
				got, err := ReadStreamResp(bytes.NewReader(b), nil)
				if err != nil {
					t.Fatalf("ReadStreamResp(%v, %d, %d): %v", st, n, ra, err)
				}
				if got.Status != st || got.Accepted != n || got.RetryAfter != ra {
					t.Fatalf("round trip: got %+v, want {%v %d %d}", got, st, n, ra)
				}
			}
		}
	}
}

// TestStreamRespClamps: negative and over-u16 accepted counts clamp instead
// of wrapping, and the retry-after hint clamps to its single byte.
func TestStreamRespClamps(t *testing.T) {
	b := AppendStreamResp(nil, StreamResp{Status: StreamAck, Accepted: -5})
	if got, _ := ReadStreamResp(bytes.NewReader(b), nil); got.Accepted != 0 {
		t.Fatalf("negative accepted decoded as %d, want 0", got.Accepted)
	}
	b = AppendStreamResp(nil, StreamResp{Status: StreamAck, Accepted: 1 << 20})
	if got, _ := ReadStreamResp(bytes.NewReader(b), nil); got.Accepted != MaxFrameRecords {
		t.Fatalf("oversized accepted decoded as %d, want %d", got.Accepted, MaxFrameRecords)
	}
	b = AppendStreamResp(nil, StreamResp{Status: StreamNackBusy, RetryAfter: 400})
	if got, _ := ReadStreamResp(bytes.NewReader(b), nil); got.RetryAfter != 255 {
		t.Fatalf("oversized retry-after decoded as %d, want 255", got.RetryAfter)
	}
	b = AppendStreamResp(nil, StreamResp{Status: StreamNackBusy, RetryAfter: -3})
	if got, _ := ReadStreamResp(bytes.NewReader(b), nil); got.RetryAfter != 0 {
		t.Fatalf("negative retry-after decoded as %d, want 0", got.RetryAfter)
	}
}

// TestStreamRespMalformed: a bad magic is a typed (connection-fatal)
// error; a short read surfaces the io error. Byte 5 — once reserved — is
// the retry-after hint now, so any value there parses.
func TestStreamRespMalformed(t *testing.T) {
	good := AppendStreamResp(nil, StreamResp{Status: StreamAck})

	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadStreamResp(bytes.NewReader(bad), nil); !errors.Is(err, ErrBadResp) {
		t.Fatalf("bad magic: err %v, want ErrBadResp", err)
	}
	bad = append(bad[:0], good...)
	bad[5] = 7
	if got, err := ReadStreamResp(bytes.NewReader(bad), nil); err != nil || got.RetryAfter != 7 {
		t.Fatalf("hint byte: got %+v err %v, want RetryAfter 7", got, err)
	}
	if _, err := ReadStreamResp(bytes.NewReader(good[:3]), nil); err == nil {
		t.Fatal("short read: expected an error")
	}
}

// TestReadFrameStream: consecutive frames come off one reader intact and
// decodable, with the buffer reused between calls.
func TestReadFrameStream(t *testing.T) {
	enc := NewFrameEncoder()
	var wire bytes.Buffer
	want := [][]float64{{1, 2, 3}, {1, 2.5, 3}, {4, 5, 6}}
	for i, vec := range want {
		enc.Reset()
		if err := enc.Add(7, 100+i, vec); err != nil {
			t.Fatal(err)
		}
		f, err := enc.Frame()
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(f)
	}

	var dec FrameDecoder
	var buf []byte
	for i := range want {
		frame, err := ReadFrame(&wire, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = frame[:0]
		recs, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if len(recs) != 1 {
			t.Fatalf("frame %d: %d records", i, len(recs))
		}
		// Frame 1 is a delta; reconstruct it against frame 0's vector.
		vec := recs[0].Values
		if recs[0].Kind == RecDelta {
			vec = append([]float64(nil), want[i-1]...)
			recs[0].Patch(vec)
		}
		for k, v := range want[i] {
			if vec[k] != v {
				t.Fatalf("frame %d: vec %v, want %v", i, vec, want[i])
			}
		}
	}
	if _, err := ReadFrame(&wire, buf); err != io.EOF {
		t.Fatalf("exhausted stream: err %v, want io.EOF", err)
	}
}

// TestReadFrameMalformed: header corruption is fatal before any payload
// read; a torn payload surfaces io.ErrUnexpectedEOF.
func TestReadFrameMalformed(t *testing.T) {
	enc := NewFrameEncoder()
	if err := enc.Add(1, 1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	f, err := enc.Frame()
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), f...)

	for name, mangle := range map[string]func([]byte) []byte{
		"bad magic":      func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version":    func(b []byte) []byte { b[4] = 99; return b },
		"reserved flags": func(b []byte) []byte { b[5] = 1; return b },
		"huge payload": func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:], MaxFramePayload+1)
			return b
		},
	} {
		b := mangle(append([]byte(nil), good...))
		if _, err := ReadFrame(bytes.NewReader(b), nil); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err %v, want ErrBadFrame", name, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(good[:len(good)-3]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn payload: err %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(good[:10]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: err %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzStreamResp: the VN2A ack decoder never panics on arbitrary bytes, a
// short read is an error, a bad magic is ErrBadResp, and whatever it accepts
// re-encodes to the same 8 bytes; every AppendStreamResp output with in-range
// fields, unknown statuses included, reads back equal.
func FuzzStreamResp(f *testing.F) {
	for _, st := range []StreamStatus{StreamAck, StreamNackBad, StreamNackBusy, StreamNackUnavailable, 9} {
		good := AppendStreamResp(nil, StreamResp{Status: st, Accepted: 64, RetryAfter: 1})
		f.Add(good, byte(st), uint16(64), uint8(1))
		f.Add(good[:5], byte(st), uint16(MaxFrameRecords), uint8(255))
	}
	f.Add([]byte{}, byte(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, b []byte, status byte, accepted uint16, retry uint8) {
		got, err := ReadStreamResp(bytes.NewReader(b), nil)
		switch {
		case len(b) < StreamRespLen:
			if err == nil {
				t.Fatalf("%d bytes read as %+v", len(b), got)
			}
		case err == nil:
			if out := AppendStreamResp(nil, got); !bytes.Equal(out, b[:StreamRespLen]) {
				t.Fatalf("% x read as %+v, which encodes to % x", b[:StreamRespLen], got, out)
			}
		case !errors.Is(err, ErrBadResp):
			t.Fatalf("% x: err %v, want ErrBadResp", b[:StreamRespLen], err)
		}
		want := StreamResp{Status: StreamStatus(status), Accepted: int(accepted), RetryAfter: int(retry)}
		if got, err := ReadStreamResp(bytes.NewReader(AppendStreamResp(nil, want)), nil); err != nil || got != want {
			t.Fatalf("round trip of %+v: %+v, %v", want, got, err)
		}
	})
}
