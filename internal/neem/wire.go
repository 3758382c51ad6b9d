package neem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// The wire path. A connection carries a 4-byte handshake (the dialer's
// node id), then frames: a 4-byte big-endian length and that many bytes.
// The length 0xFFFFFFFF is the departure sentinel and has no body.
//
// Both directions pay the socket per batch, not per frame. Send appends
// frames, already in wire form, to the connection's pending queue; the
// write loop takes everything pending and hands it to the socket in one
// write. The read loop reads through one buffer per connection and hands
// frames out as views into it.
//
// Who owns the bytes, stage by stage:
//
//   - Outbound, the caller of Send keeps its slice: Send copies it before
//     returning. A frame that fits a chunk is copied into a pooled
//     coalescing chunk owned by that one queue. A larger frame is copied
//     once into a wire buffer of its own (see Transport.wireForm), which
//     is immutable from then on: the queues of one fan-out hold it by
//     reference, a purge drops one queue's reference without touching the
//     bytes, and the collector frees it after the last write.
//   - Inbound, the Handler gets a view into the connection's read buffer
//     (or the pooled body of a large frame), valid only during the call.
//     Only the fault plane's delayed delivery copies it, for its timers.
//   - Above the transport the same rule holds: whoever keeps bytes
//     copies them; upcalls get views. The payload travels up to the
//     gossip layer, its eager relays and emcast's OnDeliver as a view
//     into the frame, valid for the handler call. The one copy is
//     lazy.Payloads.Keep's, made in the lazy module's store when the
//     module first caches an id to answer IWANTs; the cache holds it
//     until eviction releases it. An application that keeps a
//     Delivery.Payload copies it.

// chunkSize is the unit of coalescing: frames that fit are packed into
// chunks of this size, one after another; a larger frame is queued as
// its own shared wire buffer (see Transport.wireForm).
const chunkSize = 4096

// chunkPool recycles coalescing chunks across all connections, so a
// connection retains no buffer while its queue is empty.
var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// bodyPool recycles the buffers of frames too large for a read buffer.
// They are attached to no connection: a burst of large frames leaves
// nothing behind but what the pool keeps until the next collection.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// bodyStep is how much a large frame's buffer may grow ahead of the bytes
// actually received (see frameReader.readBody).
const bodyStep = 64 << 10

// sendq is one connection's pending queue: frames in wire form, oldest
// first, packed into chunks. It is bounded in frames; when full the
// oldest frame is dropped (NeEM's purging strategy). The queue is
// self-describing — every frame starts with its length — so the oldest
// frame can be cut off the front without a side table.
type sendq struct {
	mu     sync.Mutex
	chunks net.Buffers // chunks[0] starts at the oldest pending frame
	frames int
}

// push appends one frame that fits a chunk, copying it behind the frames
// before it. With limit frames already pending the oldest is dropped
// first. It reports whether a frame was purged and whether the queue was
// empty before — the one transition the write loop is woken on.
func (q *sendq) push(frame []byte, limit int) (purged, first bool) {
	need := 4 + len(frame)
	q.mu.Lock()
	defer q.mu.Unlock()
	purged = q.makeRoom(limit)
	var dst []byte
	if k := len(q.chunks) - 1; k >= 0 && cap(q.chunks[k])-len(q.chunks[k]) >= need {
		dst, q.chunks = q.chunks[k], q.chunks[:k]
	} else {
		dst = chunkPool.Get().(*[chunkSize]byte)[:0]
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(frame)))
	q.chunks = append(q.chunks, append(dst, frame...))
	q.frames++
	return purged, q.frames == 1
}

// pushWire is push for a frame already in wire form, queued by reference
// as a chunk of its own. The buffer is shared with other queues and must
// not be written to: its capacity is its length, so push never packs a
// frame behind it, and it is larger than a chunk, so recycle never pools
// it.
func (q *sendq) pushWire(wire []byte, limit int) (purged, first bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	purged = q.makeRoom(limit)
	q.chunks = append(q.chunks, wire[:len(wire):len(wire)])
	q.frames++
	return purged, q.frames == 1
}

// makeRoom drops the oldest frame if limit frames are pending and
// reports whether it did. Callers hold q.mu.
func (q *sendq) makeRoom(limit int) bool {
	if q.frames < limit {
		return false
	}
	q.dropOldest()
	return true
}

// dropOldest cuts the oldest frame off the front. Callers hold q.mu and
// have checked that a frame is pending.
func (q *sendq) dropOldest() {
	head := q.chunks[0]
	n := 4 + int(binary.BigEndian.Uint32(head))
	q.frames--
	if n < len(head) {
		q.chunks[0] = head[n:]
		return
	}
	recycle(q.chunks[:1])
	q.chunks = q.chunks[1:]
}

// take hands over everything pending and leaves the queue empty, with
// spare's backing array to collect the next batch's chunks in.
func (q *sendq) take(spare net.Buffers) (batch net.Buffers, frames int) {
	q.mu.Lock()
	batch, frames = q.chunks, q.frames
	q.chunks, q.frames = spare[:0], 0
	q.mu.Unlock()
	return batch, frames
}

// drop discards everything pending and returns the number of frames.
func (q *sendq) drop() int {
	batch, frames := q.take(nil)
	recycle(batch)
	return frames
}

// depth returns the number of frames pending.
func (q *sendq) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.frames
}

// recycle returns a spent batch's coalescing chunks to the pool. A chunk
// allocated for one large frame, or one whose front was cut off by a
// purge, no longer has the pool's capacity and is left to the collector.
func recycle(batch net.Buffers) {
	for i, b := range batch {
		if cap(b) == chunkSize {
			chunkPool.Put((*[chunkSize]byte)(b[:chunkSize]))
		}
		batch[i] = nil
	}
}

// write hands a batch to the socket in one call: a plain write for one
// chunk, a gathered write (writev on a TCP socket) for several. The
// caller has armed the deadline. It returns the bytes written.
func (c *conn) write(nc net.Conn, batch net.Buffers) (int64, error) {
	if len(batch) == 1 {
		n, err := nc.Write(batch[0])
		return int64(n), err
	}
	// WriteTo consumes the list it is called on, and the batch is still
	// needed for recycling: give it a copy, in scratch the loop reuses.
	list := append(c.iov[:0], batch...)
	c.iov = list
	n, err := c.iov.WriteTo(nc)
	clear(list)
	c.iov = list[:0]
	return n, err
}

// writeDeparture announces a graceful leave on the wire.
func writeDeparture(w io.Writer) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], departureSentinel)
	_, err := w.Write(lenBuf[:])
	return err
}

// wireConn is what frames are read from: a net.Conn, or a test's stand-in.
type wireConn interface {
	io.Reader
	SetReadDeadline(time.Time) error
}

// frameReader reads frames off one inbound connection through one
// buffer. A frame that fits the buffer is returned as a view into it; a
// larger one is assembled in a pooled buffer. Either way the slice is
// valid only until the next call.
//
// Between frames the reader waits without a deadline — a healthy link may
// be silent for ever. Once the first byte of a frame has arrived the rest
// must follow within timeout, so a peer that announces a frame and stalls
// costs a goroutine and at most bodyStep of memory for that long, not for
// ever. The deadline is touched only when a frame really is incomplete:
// frames that arrive whole, the common case, never arm it.
type frameReader struct {
	conn    wireConn
	br      *bufio.Reader
	timeout time.Duration
	armed   bool
	// waited reports whether the last call to next had to read from the
	// connection, i.e. whether its frame is the first of a new batch.
	waited bool
	skip   int     // buffered bytes of the last frame, discarded by the next call
	body   *[]byte // pooled buffer holding the last frame, if it was a large one
}

func newFrameReader(conn wireConn, timeout time.Duration) *frameReader {
	return &frameReader{conn: conn, br: bufio.NewReader(conn), timeout: timeout}
}

var errFrameTooLarge = errors.New("neem: frame too large")

// next returns the next frame, or departed for the graceful-leave
// sentinel. The frame is valid until the following call.
func (r *frameReader) next() (frame []byte, departed bool, err error) {
	r.release()
	r.waited = false
	if r.br.Buffered() == 0 {
		r.waited = true
		if _, err := r.br.Peek(1); err != nil {
			return nil, false, err
		}
	}
	defer r.disarm()
	hdr, err := r.peek(4)
	if err != nil {
		return nil, false, err
	}
	n := binary.BigEndian.Uint32(hdr)
	switch {
	case n == departureSentinel:
		r.skip = 4
		return nil, true, nil
	case n > MaxFrame:
		return nil, false, errFrameTooLarge
	case 4+int(n) <= r.br.Size():
		b, err := r.peek(4 + int(n))
		if err != nil {
			return nil, false, err
		}
		r.skip = len(b)
		return b[4:], false, nil
	}
	r.br.Discard(4)
	frame, err = r.readBody(int(n))
	return frame, false, err
}

// peek returns the next n bytes of the frame in progress without
// consuming them, waiting under the deadline for those not yet buffered.
func (r *frameReader) peek(n int) ([]byte, error) {
	if r.br.Buffered() < n {
		r.arm()
	}
	return r.br.Peek(n)
}

// readBody assembles an n-byte body that does not fit the read buffer.
// The buffer grows with the bytes received — at most bodyStep or a
// doubling ahead of them — so the length a peer announces allocates
// nothing by itself. Reads go straight into the body once the read
// buffer is drained.
func (r *frameReader) readBody(n int) ([]byte, error) {
	r.arm()
	r.body = bodyPool.Get().(*[]byte)
	buf := (*r.body)[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), bodyStep)))
			copy(grown, buf)
			buf = grown
		}
		m, err := r.br.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	*r.body = buf // the pool keeps the grown buffer
	return buf, nil
}

// release gives up the previous frame: its bytes in the read buffer are
// consumed, its pooled buffer goes back.
func (r *frameReader) release() {
	if r.skip > 0 {
		r.br.Discard(r.skip)
		r.skip = 0
	}
	if r.body != nil {
		bodyPool.Put(r.body)
		r.body = nil
	}
}

func (r *frameReader) arm() {
	r.waited = true
	if !r.armed {
		r.armed = true
		r.conn.SetReadDeadline(time.Now().Add(r.timeout))
	}
}

func (r *frameReader) disarm() {
	if r.armed {
		r.armed = false
		r.conn.SetReadDeadline(time.Time{})
	}
}
