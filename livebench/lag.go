package main

import (
	"net"
	"sync"
	"time"
)

// lagConn adds a fixed one-way latency to both directions of a connection,
// as a delay line: bytes written at t leave at t+lat and bytes that arrive
// at t are readable at t+lat, however many are in flight. Wrapping one end
// of a connection therefore costs every request/response exchange one full
// round trip of 2×lat.
//
// netem.Shaper charges its latency only to a write that follows an idle gap
// longer than the latency. Under request/response traffic that is bistable:
// a session whose exchanges happen to come back quickly never pays it, one
// that pays it once stays slow. On a 2-vCPU VM, one 32768-job multi-query
// mix took 38 s in one run and 89 s in another with the same inputs. The
// benchmark therefore shapes bandwidth with netem and adds latency here.
type lagConn struct {
	net.Conn
	lat time.Duration

	out     chan segment // written bytes waiting to leave
	in      chan segment // arrived bytes waiting to be readable
	cur     segment      // segment being read
	pending []byte       // readable remainder of cur
	readErr error

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

type segment struct {
	buf  *[]byte // from segFree; data aliases it
	data []byte
	due  time.Time
	err  error
}

// segBytes caps a segment. Segments come from a free list rather than a
// sync.Pool, which the collector empties, so that after the first
// repetition the emulated network adds nothing to the measured heap.
const segBytes = 64 << 10

// segFree holds idle segment buffers; 256 of them (16 MiB) cover the
// segments in flight on every connection of a deployment at once.
var segFree = make(chan *[]byte, 256)

func getSeg() *[]byte {
	select {
	case b := <-segFree:
		return b
	default:
		b := make([]byte, segBytes)
		return &b
	}
}

func putSeg(s segment) {
	if s.buf == nil {
		return
	}
	select {
	case segFree <- s.buf:
	default:
	}
}

// inFlight bounds the segments queued in each direction; a writer blocks
// beyond it as on a full socket buffer.
const inFlight = 256

func newLagConn(c net.Conn, lat time.Duration) *lagConn {
	l := &lagConn{
		Conn:   c,
		lat:    lat,
		out:    make(chan segment, inFlight),
		in:     make(chan segment, inFlight),
		closed: make(chan struct{}),
	}
	l.wg.Add(2)
	go l.send()
	go l.receive()
	return l
}

// send writes each queued segment to the connection once it is due.
func (l *lagConn) send() {
	defer l.wg.Done()
	for {
		select {
		case <-l.closed:
			return
		case s := <-l.out:
			time.Sleep(time.Until(s.due))
			_, err := l.Conn.Write(s.data)
			putSeg(s)
			if err != nil {
				return
			}
		}
	}
}

// receive reads the connection and queues what arrives, stamped with the
// time it becomes readable.
func (l *lagConn) receive() {
	defer l.wg.Done()
	for {
		buf := getSeg()
		n, err := l.Conn.Read(*buf)
		s := segment{buf: buf, data: (*buf)[:n], due: time.Now().Add(l.lat), err: err}
		select {
		case l.in <- s:
		case <-l.closed:
			putSeg(s)
			return
		}
		if err != nil {
			return
		}
	}
}

// Write implements net.Conn: it queues a copy of b and returns.
func (l *lagConn) Write(b []byte) (int, error) {
	due := time.Now().Add(l.lat)
	for off := 0; off < len(b); {
		buf := getSeg()
		n := copy(*buf, b[off:])
		s := segment{buf: buf, data: (*buf)[:n], due: due}
		select {
		case l.out <- s:
			off += n
		case <-l.closed:
			putSeg(s)
			return off, net.ErrClosed
		}
	}
	return len(b), nil
}

// Read implements net.Conn.
func (l *lagConn) Read(b []byte) (int, error) {
	for len(l.pending) == 0 {
		if l.readErr != nil {
			return 0, l.readErr
		}
		select {
		case s := <-l.in:
			time.Sleep(time.Until(s.due))
			putSeg(l.cur)
			l.cur, l.pending, l.readErr = s, s.data, s.err
		case <-l.closed:
			return 0, net.ErrClosed
		}
	}
	n := copy(b, l.pending)
	l.pending = l.pending[n:]
	return n, nil
}

// Close implements net.Conn; it returns once both pumps have stopped.
func (l *lagConn) Close() error {
	err := net.ErrClosed
	l.once.Do(func() {
		close(l.closed)
		err = l.Conn.Close()
	})
	l.wg.Wait()
	return err
}
