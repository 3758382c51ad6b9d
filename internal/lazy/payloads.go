package lazy

import (
	"bytes"

	"emcast/internal/ids"
	"emcast/internal/obs"
)

// Payloads keeps the payloads nodes hold past the frame that carried
// them: one durable copy per message id, shared by every holder of that
// message, with a count of its holders. The emulator runs all its nodes
// in one process and gives them one store, so the payload caches C of n
// nodes hold one copy of each message between them instead of n; a module
// given no store (a TCP peer) keeps its payloads in a private one.
//
// An entry lives while a holder keeps it: Keep takes a hold, Release drops
// one, and the entry, its bytes included, goes when the last hold does.
// Kept payloads are read-only. The zero value is ready for use. Not safe
// for concurrent use.
type Payloads struct {
	kept  ids.Map[heldPayload]
	bytes int64 // payload bytes kept, for Footprint
}

// heldPayload is a store entry: the kept bytes and how many holds keep
// them.
type heldPayload struct {
	payload []byte
	holders int
}

// Keep takes a hold on id's entry and returns its bytes, which the caller
// may retain until it calls Release: the entry's bytes when they equal
// payload, or a fresh copy of payload that becomes the entry when id has
// none. held reports that a hold was taken. An id kept with other bytes
// than its entry's gets a fresh copy that the caller owns outright (held
// is false) and leaves the entry as it is, so sharing never relies on ids
// being unique. This is the one place the lazy layer copies a payload.
func (p *Payloads) Keep(id ids.ID, payload []byte) (kept []byte, held bool) {
	e, ok := p.kept.Get(id)
	if ok && !bytes.Equal(e.payload, payload) {
		return append([]byte(nil), payload...), false
	}
	if !ok {
		e.payload = append([]byte(nil), payload...)
		p.bytes += int64(len(e.payload))
	}
	e.holders++
	p.kept.Put(id, e)
	return e.payload, true
}

// Release drops one hold on id's entry, and deletes the entry once no
// hold is left. Releasing an id with no entry does nothing.
func (p *Payloads) Release(id ids.ID) {
	e, ok := p.kept.Get(id)
	switch {
	case !ok:
	case e.holders > 1:
		e.holders--
		p.kept.Put(id, e)
	default:
		p.kept.Delete(id)
		p.bytes -= int64(len(e.payload))
	}
}

// Get returns id's kept bytes, if the store has an entry for it.
func (p *Payloads) Get(id ids.ID) ([]byte, bool) {
	e, ok := p.kept.Get(id)
	return e.payload, ok
}

// Footprint implements obs.Footprinter: the store's table (its index, and
// a 16-byte id, a slice header and a holder count per entry) and the kept
// payload bytes, reported once under the lazy subsystem.
func (p *Payloads) Footprint() obs.Footprint {
	return obs.Footprint{
		Subsystem: "lazy",
		Bytes:     p.kept.FootprintBytes() + p.bytes,
		Items:     int64(p.kept.Len()),
	}
}
