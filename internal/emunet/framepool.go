package emunet

import "math/bits"

// framePool recycles in-flight frame buffers through power-of-two size
// classes. Send copies every frame (the emulator owns the bytes while
// they are "on the wire"), and before pooling that copy was ~360 MB of
// garbage per 1k-node cell. The pool has arena semantics: buffers are
// never returned to the GC, and `bytes` counts every byte the pool has
// ever allocated — each buffer carved from it is either in flight inside
// an event or parked in a class stack, so the sum is the exact retained
// footprint.
//
// A class with no parked buffer grows by a chunk, one allocation carved
// into as many buffers as fit frameChunkBytes, so warming the pool up to
// the run's peak of in-flight frames costs a few allocations per class,
// not one per frame.
type framePool struct {
	classes [frameClasses][][]byte
	bytes   int64
}

const (
	frameMinShift = 5  // 32 B floor — control frames dominate
	frameMaxShift = 20 // 1 MiB ceiling — larger frames bypass the pool
	frameClasses  = frameMaxShift - frameMinShift + 1
	// frameChunkBytes is the size of one pool growth step: 512 control
	// frames or 32 payload frames of a few hundred bytes.
	frameChunkBytes = 16 << 10
)

// frameClass maps a byte length to its size class, or -1 when the
// length is beyond the pooled range.
func frameClass(n int) int {
	if n <= 1<<frameMinShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - frameMinShift
	if c >= frameClasses {
		return -1
	}
	return c
}

// get returns a length-n buffer backed by a recycled or freshly grown
// pool slot; callers overwrite all n bytes. Oversize requests fall back
// to a plain allocation the pool never sees again.
func (p *framePool) get(n int) []byte {
	c := frameClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if stack := p.classes[c]; len(stack) > 0 {
		b := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		p.classes[c] = stack[:len(stack)-1]
		return b[:n]
	}
	size := 1 << (c + frameMinShift)
	k := max(1, frameChunkBytes/size)
	chunk := make([]byte, k*size)
	p.bytes += int64(k * size)
	for i := k - 1; i > 0; i-- {
		p.classes[c] = append(p.classes[c], chunk[i*size:i*size:(i+1)*size])
	}
	return chunk[:n:size]
}

// put parks a buffer previously handed out by get. Buffers whose
// capacity is not an exact pool class (oversize fallbacks) are dropped
// for the GC.
func (p *framePool) put(b []byte) {
	c := frameClass(cap(b))
	if c < 0 || cap(b) != 1<<(c+frameMinShift) {
		return
	}
	p.classes[c] = append(p.classes[c], b[:0])
}
