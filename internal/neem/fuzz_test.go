package neem

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"emcast/internal/ids"
)

// chunked is a connection that delivers a byte stream in reads of
// arbitrary size, as TCP may.
type chunked struct {
	stream []byte
	rng    uint64
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	c.rng = ids.Mix64(c.rng)
	n := min(1+int(c.rng%8192), len(p), len(c.stream))
	if c.rng>>60 == 0 {
		n = 1 // now and then, a single byte
	}
	copy(p, c.stream[:n])
	c.stream = c.stream[n:]
	return n, nil
}

func (c *chunked) SetReadDeadline(time.Time) error { return nil }

// expand turns a script into a well-formed stream, so that the fuzzer
// reaches frames of every size without megabyte inputs: each 4-byte step
// is one frame (or a departure sentinel) whose size class, size and fill
// byte the step chooses. Total output is capped to keep executions fast.
func expand(script []byte) []byte {
	var out []byte
	for ; len(script) >= 4 && len(out) < 4<<20; script = script[4:] {
		size := 0
		switch script[0] % 8 {
		case 0:
			out = binary.BigEndian.AppendUint32(out, departureSentinel)
			continue
		case 1, 2, 3, 4: // many to a read buffer
			size = int(script[1])
		case 5: // around the read buffer's size
			size = 4096 - 16 + int(script[1]%32)
		case 6: // larger than the buffer, around the body buffer's first step
			size = bodyStep - 128 + int(script[1])
		case 7: // up to the limit
			size = MaxFrame - int(script[1])
		}
		out = binary.BigEndian.AppendUint32(out, uint32(size))
		// 0xFF fill makes bodies that look like sentinels and huge lengths.
		out = append(out, bytes.Repeat(script[2:3], size)...)
		if size > 0 {
			out[len(out)-1] = script[3]
		}
	}
	return out
}

// FuzzFrameReader runs the inbound wire parser over arbitrary byte
// streams cut into arbitrary reads, against the obvious parser over the
// whole stream: never a panic; the same frames, byte for byte and in
// order; the departure sentinel recognised exactly where a frame could
// start; an announced length beyond MaxFrame refused; and never more
// memory held than a frame may take.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{1, 5, 'a', 'b', 1, 0, 0, 0, 0, 0, 0, 0, 2, 200, 0xFF, 0xFF}, []byte{}, uint64(1))
	f.Add([]byte{5, 11, 'x', 'y', 5, 12, 'x', 'y', 5, 13, 'x', 'y', 6, 0, 1, 2, 6, 200, 1, 2}, []byte{0, 0}, uint64(2))
	f.Add([]byte{7, 0, 0xFF, 0xFF, 3, 9, 0xFF, 0xFF}, []byte{0, 0x10, 0, 1, 'x'}, uint64(3))
	f.Add([]byte{}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(4))
	f.Add([]byte{}, []byte{0, 0, 0, 3, 'a', 'b'}, uint64(5))

	f.Fuzz(func(t *testing.T, script, tail []byte, chunking uint64) {
		stream := append(expand(script), tail...)
		r := newFrameReader(&chunked{stream: stream, rng: chunking}, time.Second)
		for frames := 0; ; frames++ {
			frame, departed, err := r.next()

			// The reference: the next frame of what is left of the stream.
			var want []byte
			wantDeparted, wantErr := false, false
			switch {
			case len(stream) < 4:
				wantErr = true
			case binary.BigEndian.Uint32(stream) == departureSentinel:
				wantDeparted, stream = true, stream[4:]
			case binary.BigEndian.Uint32(stream) > MaxFrame:
				wantErr = true
			case len(stream)-4 < int(binary.BigEndian.Uint32(stream)):
				wantErr = true
			default:
				n := 4 + int(binary.BigEndian.Uint32(stream))
				want, stream = stream[4:n], stream[n:]
			}

			if (err != nil) != wantErr {
				t.Fatalf("call %d: err = %v, reference fails: %v", frames, err, wantErr)
			}
			if err != nil {
				return
			}
			if departed != wantDeparted || !bytes.Equal(frame, want) {
				t.Fatalf("call %d: got %d bytes (departed %v), want %d bytes (departed %v)",
					frames, len(frame), departed, len(want), wantDeparted)
			}
			if cap(frame) > MaxFrame || r.br.Size() > 4096 {
				t.Fatalf("call %d: reader holds a %d-byte body and a %d-byte buffer", frames, cap(frame), r.br.Size())
			}
		}
	})
}
