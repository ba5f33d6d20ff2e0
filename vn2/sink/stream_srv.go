package sink

// The persistent frame-stream ingest edge: a raw TCP listener that reads
// consecutive VN2F frames off each long-lived connection and answers every
// frame with the 8-byte ACK/NACK response (packet.StreamResp). Commit
// semantics are byte-for-byte those of POST /report/bin — both edges call
// commitFrame — so a client may freely mix transports.
//
// Robustness properties:
//
//   - Per-frame read deadlines: a slowloris peer that dribbles bytes (or a
//     sender that stalls mid-frame) is disconnected after StreamReadTimeout,
//     not allowed to pin a connection slot forever.
//   - Connection cap: beyond StreamMaxConns, new connections get one
//     StreamNackUnavailable response and are closed, so accept pressure
//     cannot exhaust file descriptors or goroutines.
//   - Backpressure propagation: a frame the ingest queue has no room for
//     is NACKed whole (StreamNackBusy, nothing accepted, nothing
//     journaled); the client owns the slow-down.
//   - Graceful drain: shutdown stops accepting, lets every in-flight frame
//     finish and be acknowledged, then closes; an abrupt stop (the chaos
//     harness's kill -9) severs everything mid-flight.
//
// Framing errors are connection-fatal by design: a byte stream that lost
// frame alignment cannot be resynced, so the handler closes and the client
// re-dials (and, per the protocol, Forgets its delta baselines). A frame
// whose header parsed but whose payload is bad (CRC, structure, delta-base
// miss) is NACKed in-stream and the connection lives on.

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
)

// Stream listener defaults (the first two overridable via Options) and the
// per-response write deadline.
const (
	defaultStreamConns       = 64
	defaultStreamReadTimeout = 30 * time.Second
	streamWriteTimeout       = 10 * time.Second
	// streamDrainGrace bounds how long a graceful StopStream waits for an
	// in-flight frame before the read deadline severs the connection.
	streamDrainGrace = 2 * time.Second
)

type streamSrv struct {
	s           *Server
	ln          net.Listener
	maxConns    int
	readTimeout time.Duration

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup // accept loop + one goroutine per connection
}

// StartStream opens the persistent frame-stream listener on addr (the
// -stream-addr flag; "host:0" picks a free port) and starts accepting. The
// resolved address is returned for harnesses that bind port 0.
func (s *Server) StartStream(addr string) (net.Addr, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.stream != nil {
		return nil, errors.New("serve: stream listener already running")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	st := &streamSrv{
		s:           s,
		ln:          ln,
		maxConns:    s.opts.StreamMaxConns,
		readTimeout: s.opts.StreamReadTimeout,
		conns:       make(map[net.Conn]struct{}),
	}
	if st.maxConns <= 0 {
		st.maxConns = defaultStreamConns
	}
	if st.readTimeout <= 0 {
		st.readTimeout = defaultStreamReadTimeout
	}
	s.stream = st
	st.wg.Add(1)
	go st.acceptLoop()
	return ln.Addr(), nil
}

// StopStream shuts the stream listener down. Graceful means drain: stop
// accepting, give every connection streamDrainGrace to finish its in-flight
// frame (which is still committed and acknowledged), then close. Abrupt
// (graceful=false) severs everything immediately — the chaos harness's
// kill -9, after which clients must observe the reconnect protocol.
// Returns nil when no listener is running.
func (s *Server) StopStream(graceful bool) error {
	s.streamMu.Lock()
	st := s.stream
	s.stream = nil
	s.streamMu.Unlock()
	if st == nil {
		return nil
	}
	err := st.ln.Close()
	st.mu.Lock()
	st.draining = true
	for c := range st.conns {
		if graceful {
			// Unblock a parked read soon; a handler mid-frame gets the grace
			// window to finish, respond, and exit via the draining check.
			c.SetReadDeadline(time.Now().Add(streamDrainGrace))
		} else {
			c.Close()
		}
	}
	st.mu.Unlock()
	st.wg.Wait()
	return err
}

// StreamConns reports the number of live stream connections.
func (s *Server) StreamConns() int {
	s.streamMu.Lock()
	st := s.stream
	s.streamMu.Unlock()
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.conns)
}

func (st *streamSrv) acceptLoop() {
	defer st.wg.Done()
	for {
		c, err := st.ln.Accept()
		if err != nil {
			return // listener closed
		}
		st.mu.Lock()
		over := st.draining || len(st.conns) >= st.maxConns
		if !over {
			st.conns[c] = struct{}{}
		}
		st.mu.Unlock()
		if over {
			// Tell the peer why before hanging up; best effort.
			st.s.streamRejects.Add(1)
			c.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			c.Write(packet.AppendStreamResp(nil, packet.StreamResp{
				Status: packet.StreamNackUnavailable, RetryAfter: retryAfterUnavailable,
			}))
			c.Close()
			continue
		}
		st.s.streamConnsTotal.Add(1)
		st.wg.Add(1)
		go st.handle(c)
	}
}

// armRead sets the per-frame read deadline unless the listener is draining
// (in which case the drain's shorter deadline must not be overwritten).
// Returns false when the handler should exit instead of reading.
func (st *streamSrv) armRead(c net.Conn) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.draining {
		return false
	}
	c.SetReadDeadline(time.Now().Add(st.readTimeout))
	return true
}

func (st *streamSrv) handle(c net.Conn) {
	defer st.wg.Done()
	defer func() {
		st.mu.Lock()
		delete(st.conns, c)
		st.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var buf []byte
	resp := make([]byte, 0, packet.StreamRespLen)
	for {
		if !st.armRead(c) {
			return
		}
		frame, err := packet.ReadFrame(br, buf)
		if err != nil {
			// EOF, deadline, torn frame, or lost framing — all fatal for
			// this connection; nothing from the failed read was committed.
			return
		}
		buf = frame[:0]
		st.s.streamFrames.Add(1)
		out := st.s.commitFrame(frame)
		if out.status != packet.StreamAck {
			st.s.streamNacks.Add(1)
		}
		c.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		resp = packet.AppendStreamResp(resp[:0], packet.StreamResp{
			Status: out.status, Accepted: out.accepted, RetryAfter: out.retryAfter,
		})
		if _, err := c.Write(resp); err != nil {
			return
		}
	}
}
