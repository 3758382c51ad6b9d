package msg

import (
	"bytes"
	"testing"

	"emcast/internal/ids"
	"emcast/internal/peer"
)

// FuzzParsedDecode feeds Parsed.Decode what a socket might: it must never
// panic and never produce more than the codec's bounds allow; whatever it
// accepts must re-encode to exactly the bytes it was given (the codec is
// strict, so there is one encoding per frame); the payload must be a view
// of the input, not a copy; and a reused Parsed must decode like a fresh
// one, whatever the previous frame left in its scratch.
func FuzzParsedDecode(f *testing.F) {
	view := []peer.ID{1, 2, 3, 1 << 31}
	for _, fr := range []Frame{
		&Msg{ID: ids.ID{1, 2, 3}, Round: 7, Payload: []byte("payload")},
		&Msg{ID: ids.ID{9}},
		&IHave{ID: ids.ID{4}}, &IWant{ID: ids.ID{5}},
		&Shuffle{View: view}, &ShuffleReply{View: view[:1]}, &JoinReply{},
		&Join{}, &Ping{Nonce: 1 << 63}, &Pong{Nonce: 42},
		&Scores{Scores: []Score{{Node: 3, Value: 0.25}, {Node: 4, Value: -1}}},
	} {
		f.Add(fr.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 1})
	// A length field far beyond the bytes that follow.
	f.Add(append((&Msg{ID: ids.ID{1}}).Encode(nil)[:1+ids.IDSize+2], 0xFF, 0xFF, 0xFF, 0xFF))

	var reused Parsed
	f.Fuzz(func(t *testing.T, frame []byte) {
		var fresh Parsed
		err := fresh.Decode(frame)
		if reusedErr := reused.Decode(frame); reusedErr != err {
			t.Fatalf("reused Parsed: %v, fresh Parsed: %v", reusedErr, err)
		}
		if err != nil {
			return
		}
		if len(fresh.Payload) > MaxPayload || len(fresh.View) > MaxViewEntries || len(fresh.Scores) > MaxViewEntries {
			t.Fatalf("decoded beyond the codec's bounds: payload %d, view %d, scores %d",
				len(fresh.Payload), len(fresh.View), len(fresh.Scores))
		}
		if fresh.Kind == KindMsg && len(fresh.Payload) > 0 && &fresh.Payload[0] != &frame[len(frame)-len(fresh.Payload)] {
			t.Fatal("payload is a copy, not a view of the frame")
		}
		decoded, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode rejects what Parsed.Decode accepts: %v", err)
		}
		if again := decoded.Encode(nil); !bytes.Equal(again, frame) {
			t.Fatalf("re-encoded %x, decoded from %x", again, frame)
		}
		if again := encodeParsed(&reused); !bytes.Equal(again, frame) {
			t.Fatalf("reused Parsed holds %x, decoded from %x", again, frame)
		}
	})
}

// encodeParsed re-encodes the fields of p that belong to its kind.
func encodeParsed(p *Parsed) []byte {
	switch p.Kind {
	case KindMsg:
		return (&Msg{ID: p.ID, Round: p.Round, Payload: p.Payload}).Encode(nil)
	case KindIHave:
		return (&IHave{ID: p.ID}).Encode(nil)
	case KindIWant:
		return (&IWant{ID: p.ID}).Encode(nil)
	case KindShuffle:
		return (&Shuffle{View: p.View}).Encode(nil)
	case KindShuffleReply:
		return (&ShuffleReply{View: p.View}).Encode(nil)
	case KindJoinReply:
		return (&JoinReply{View: p.View}).Encode(nil)
	case KindJoin:
		return (&Join{}).Encode(nil)
	case KindPing:
		return (&Ping{Nonce: p.Nonce}).Encode(nil)
	case KindPong:
		return (&Pong{Nonce: p.Nonce}).Encode(nil)
	default:
		return (&Scores{Scores: p.Scores}).Encode(nil)
	}
}
