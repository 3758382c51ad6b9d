package lazy

import (
	"bytes"

	"emcast/internal/ids"
	"emcast/internal/obs"
)

// Payloads keeps the payloads a run's nodes hold past the frame that
// carried them: one durable copy per message id, shared by every node that
// keeps that message. The emulator runs all its nodes in one process and
// gives them one store, so the payload cache C of n nodes holds one copy
// of each message instead of n; a TCP peer sets none, and a nil store hands
// out private copies. Kept payloads are read-only. The zero value is ready
// for use; entries live as long as the store. Not safe for concurrent use.
type Payloads struct {
	kept  *ids.Map[[]byte]
	bytes int64 // payload bytes kept, for Footprint
}

// Keep returns a copy of payload that its caller may retain: the store's
// entry for id when it holds these bytes, otherwise a fresh copy, which is
// stored when id has no entry yet. A nil store always returns a fresh copy.
// An id kept with other bytes gets a private copy and leaves the entry as
// it is, so sharing never relies on ids being unique. This is the one
// place the lazy layer copies a payload.
func (p *Payloads) Keep(id ids.ID, payload []byte) []byte {
	if p == nil {
		return append([]byte(nil), payload...)
	}
	if p.kept == nil {
		p.kept = ids.NewMap[[]byte](0)
	}
	kept, ok := p.kept.Get(id)
	if ok && bytes.Equal(kept, payload) {
		return kept
	}
	own := append([]byte(nil), payload...)
	if !ok {
		p.kept.Put(id, own)
		p.bytes += int64(len(own))
	}
	return own
}

// Footprint implements obs.Footprinter: the store's table (its index, and
// a 16-byte id plus a slice header per entry) and the kept payload bytes,
// reported once under the lazy subsystem.
func (p *Payloads) Footprint() obs.Footprint {
	fp := obs.Footprint{Subsystem: "lazy"}
	if p.kept != nil {
		fp.Bytes = p.kept.FootprintBytes() + p.bytes
		fp.Items = int64(p.kept.Len())
	}
	return fp
}
