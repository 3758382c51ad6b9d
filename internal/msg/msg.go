// Package msg defines the wire protocol shared by all transports: the
// gossip payload and control frames of the paper's Fig. 3 (MSG, IHAVE,
// IWANT), the membership shuffle frames of the NeEM-style peer sampling
// service, and the ping frames used by the run-time latency monitor.
//
// Frames are encoded with a 1-byte kind tag followed by fixed-layout
// big-endian fields. The codec is strict: Decode rejects truncated or
// trailing bytes, so malformed frames are dropped at the transport boundary
// rather than corrupting protocol state.
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// Kind tags a wire frame.
type Kind byte

// Wire frame kinds.
const (
	KindMsg Kind = iota + 1
	KindIHave
	KindIWant
	KindShuffle
	KindShuffleReply
	KindJoin
	KindJoinReply
	KindPing
	KindPong
	KindScores
)

// String returns the frame kind mnemonic used in traces.
func (k Kind) String() string {
	switch k {
	case KindMsg:
		return "MSG"
	case KindIHave:
		return "IHAVE"
	case KindIWant:
		return "IWANT"
	case KindShuffle:
		return "SHUFFLE"
	case KindShuffleReply:
		return "SHUFFLEREPLY"
	case KindJoin:
		return "JOIN"
	case KindJoinReply:
		return "JOINREPLY"
	case KindPing:
		return "PING"
	case KindPong:
		return "PONG"
	case KindScores:
		return "SCORES"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("msg: truncated frame")
	ErrTrailing  = errors.New("msg: trailing bytes")
	ErrKind      = errors.New("msg: unknown frame kind")
	ErrTooLarge  = errors.New("msg: length field exceeds limit")
)

// MaxPayload bounds decoded payload sizes, protecting against hostile or
// corrupt length fields.
const MaxPayload = 1 << 20

// MaxViewEntries bounds decoded membership view sizes.
const MaxViewEntries = 1 << 12

// HeaderOverhead is the fixed protocol overhead of a payload-bearing MSG
// frame in bytes (kind + id + round + payload length), mirroring the
// paper's 24-byte NeEM header accounting (§5.3).
const HeaderOverhead = 1 + ids.IDSize + 2 + 4

// Frame is a decodable wire message.
type Frame interface {
	Kind() Kind
	// Encode appends the wire form to dst and returns the result.
	Encode(dst []byte) []byte
}

// Msg is a full payload transmission: MSG(i, d, r) in the paper's Fig. 3.
type Msg struct {
	ID      ids.ID
	Round   uint16
	Payload []byte
}

// Kind implements Frame.
func (m *Msg) Kind() Kind { return KindMsg }

// Encode implements Frame.
func (m *Msg) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindMsg))
	dst = append(dst, m.ID[:]...)
	dst = binary.BigEndian.AppendUint16(dst, m.Round)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	return append(dst, m.Payload...)
}

// IHave advertises a message id without its payload: IHAVE(i).
type IHave struct {
	ID ids.ID
}

// Kind implements Frame.
func (m *IHave) Kind() Kind { return KindIHave }

// Encode implements Frame.
func (m *IHave) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindIHave))
	return append(dst, m.ID[:]...)
}

// IWant requests retransmission of an advertised message: IWANT(i).
type IWant struct {
	ID ids.ID
}

// Kind implements Frame.
func (m *IWant) Kind() Kind { return KindIWant }

// Encode implements Frame.
func (m *IWant) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindIWant))
	return append(dst, m.ID[:]...)
}

// Shuffle carries a sample of the sender's partial view during periodic
// overlay shuffling (peer sampling service).
type Shuffle struct {
	View []peer.ID
}

// Kind implements Frame.
func (m *Shuffle) Kind() Kind { return KindShuffle }

// Encode implements Frame.
func (m *Shuffle) Encode(dst []byte) []byte {
	return encodeView(dst, KindShuffle, m.View)
}

// ShuffleReply answers a Shuffle with the receiver's own sample.
type ShuffleReply struct {
	View []peer.ID
}

// Kind implements Frame.
func (m *ShuffleReply) Kind() Kind { return KindShuffleReply }

// Encode implements Frame.
func (m *ShuffleReply) Encode(dst []byte) []byte {
	return encodeView(dst, KindShuffleReply, m.View)
}

// Join announces a new node to a contact node.
type Join struct{}

// Kind implements Frame.
func (m *Join) Kind() Kind { return KindJoin }

// Encode implements Frame.
func (m *Join) Encode(dst []byte) []byte { return append(dst, byte(KindJoin)) }

// JoinReply seeds the joining node's view.
type JoinReply struct {
	View []peer.ID
}

// Kind implements Frame.
func (m *JoinReply) Kind() Kind { return KindJoinReply }

// Encode implements Frame.
func (m *JoinReply) Encode(dst []byte) []byte {
	return encodeView(dst, KindJoinReply, m.View)
}

// Ping probes round-trip time for the run-time latency monitor.
type Ping struct {
	Nonce uint64
}

// Kind implements Frame.
func (m *Ping) Kind() Kind { return KindPing }

// Encode implements Frame.
func (m *Ping) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindPing))
	return binary.BigEndian.AppendUint64(dst, m.Nonce)
}

// Score is one (node, centrality score) pair exchanged by the gossip-based
// ranking protocol (paper §4.1, reference [11]).
type Score struct {
	Node  peer.ID
	Value float64
}

// Scores carries a sample of the sender's known centrality scores. Like
// shuffles, scores spread epidemically so every node converges on an
// approximate global ranking.
type Scores struct {
	Scores []Score
}

// Kind implements Frame.
func (m *Scores) Kind() Kind { return KindScores }

// Encode implements Frame.
func (m *Scores) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindScores))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Scores)))
	for _, s := range m.Scores {
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.Node))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Value))
	}
	return dst
}

// Pong answers a Ping, echoing its nonce.
type Pong struct {
	Nonce uint64
}

// Kind implements Frame.
func (m *Pong) Kind() Kind { return KindPong }

// Encode implements Frame.
func (m *Pong) Encode(dst []byte) []byte {
	dst = append(dst, byte(KindPong))
	return binary.BigEndian.AppendUint64(dst, m.Nonce)
}

func encodeView(dst []byte, k Kind, view []peer.ID) []byte {
	dst = append(dst, byte(k))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(view)))
	for _, p := range view {
		dst = binary.BigEndian.AppendUint32(dst, uint32(p))
	}
	return dst
}

// Parsed is a decoded frame in caller-owned storage: one Parsed value,
// reused across Decode calls, parses any frame kind without allocating.
// Payload aliases the input frame and View/Scores point into scratch
// arrays retained by the Parsed — all three are valid only until the
// next Decode call (or until the frame buffer is recycled, whichever
// comes first). A consumer that retains any of them must copy; the hot
// delivery path (core.Node.HandleFrame) keeps the payload on first
// receipt through the run's store (shared in the simulator, a private
// copy on TCP) and never retains views.
type Parsed struct {
	Kind    Kind
	ID      ids.ID
	Round   uint16
	Nonce   uint64
	Payload []byte    // KindMsg: aliases the frame passed to Decode
	View    []peer.ID // shuffle/reply/join-reply: reused scratch
	Scores  []Score   // KindScores: reused scratch
}

// Decode parses a wire frame into p, reusing p's scratch storage. The
// codec is strict: truncated or trailing bytes are errors, so malformed
// frames are dropped at the transport boundary.
func (p *Parsed) Decode(frame []byte) error {
	if len(frame) == 0 {
		return ErrTruncated
	}
	kind, body := Kind(frame[0]), frame[1:]
	p.Kind = kind
	switch kind {
	case KindMsg:
		if len(body) < ids.IDSize+2+4 {
			return ErrTruncated
		}
		copy(p.ID[:], body[:ids.IDSize])
		body = body[ids.IDSize:]
		p.Round = binary.BigEndian.Uint16(body)
		n := binary.BigEndian.Uint32(body[2:])
		if n > MaxPayload {
			return ErrTooLarge
		}
		body = body[6:]
		if uint32(len(body)) < n {
			return ErrTruncated
		}
		if uint32(len(body)) > n {
			return ErrTrailing
		}
		p.Payload = body
		return nil
	case KindIHave, KindIWant:
		if len(body) < ids.IDSize {
			return ErrTruncated
		}
		if len(body) > ids.IDSize {
			return ErrTrailing
		}
		copy(p.ID[:], body)
		return nil
	case KindShuffle, KindShuffleReply, KindJoinReply:
		if len(body) < 2 {
			return ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(body))
		if n > MaxViewEntries {
			return ErrTooLarge
		}
		body = body[2:]
		if len(body) < 4*n {
			return ErrTruncated
		}
		if len(body) > 4*n {
			return ErrTrailing
		}
		view := p.View[:0]
		for i := 0; i < n; i++ {
			view = append(view, peer.ID(binary.BigEndian.Uint32(body[4*i:])))
		}
		p.View = view
		return nil
	case KindJoin:
		if len(body) != 0 {
			return ErrTrailing
		}
		return nil
	case KindPing, KindPong:
		if len(body) < 8 {
			return ErrTruncated
		}
		if len(body) > 8 {
			return ErrTrailing
		}
		p.Nonce = binary.BigEndian.Uint64(body)
		return nil
	case KindScores:
		if len(body) < 2 {
			return ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(body))
		if n > MaxViewEntries {
			return ErrTooLarge
		}
		body = body[2:]
		if len(body) < 12*n {
			return ErrTruncated
		}
		if len(body) > 12*n {
			return ErrTrailing
		}
		scores := p.Scores[:0]
		for i := 0; i < n; i++ {
			scores = append(scores, Score{
				Node:  peer.ID(binary.BigEndian.Uint32(body[12*i:])),
				Value: math.Float64frombits(binary.BigEndian.Uint64(body[12*i+4:])),
			})
		}
		p.Scores = scores
		return nil
	default:
		return ErrKind
	}
}

// Decode parses a wire frame into a freshly allocated concrete Frame
// type with fully owned storage. Convenience form of Parsed.Decode for
// tests and cold paths; the per-frame hot path uses a reused Parsed.
func Decode(frame []byte) (Frame, error) {
	var p Parsed
	if err := p.Decode(frame); err != nil {
		return nil, err
	}
	switch p.Kind {
	case KindMsg:
		return &Msg{ID: p.ID, Round: p.Round, Payload: append([]byte(nil), p.Payload...)}, nil
	case KindIHave:
		return &IHave{ID: p.ID}, nil
	case KindIWant:
		return &IWant{ID: p.ID}, nil
	case KindShuffle:
		return &Shuffle{View: append([]peer.ID(nil), p.View...)}, nil
	case KindShuffleReply:
		return &ShuffleReply{View: append([]peer.ID(nil), p.View...)}, nil
	case KindJoinReply:
		return &JoinReply{View: append([]peer.ID(nil), p.View...)}, nil
	case KindJoin:
		return &Join{}, nil
	case KindPing:
		return &Ping{Nonce: p.Nonce}, nil
	case KindPong:
		return &Pong{Nonce: p.Nonce}, nil
	default: // KindScores: the switch is exhaustive over parseable kinds
		return &Scores{Scores: append([]Score(nil), p.Scores...)}, nil
	}
}
