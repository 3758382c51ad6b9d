package sim

import (
	"emcast/internal/core"
	"emcast/internal/emunet"
	"emcast/internal/peer"
)

// simTransport adapts the emulator to peer.Transport. Client index and
// peer.ID coincide in simulated deployments.
type simTransport struct {
	net  *emunet.Network
	self peer.ID
}

// Send implements peer.Transport.
func (t *simTransport) Send(to peer.ID, frame []byte) {
	t.net.Send(int(t.self), int(to), frame)
}

// Local implements peer.Transport.
func (t *simTransport) Local() peer.ID { return t.self }

var _ peer.Transport = (*simTransport)(nil)

// frameHandler routes emulator deliveries into a protocol node.
type frameHandler struct {
	node *core.Node
}

// HandleFrame implements emunet.Handler.
func (h frameHandler) HandleFrame(from int, frame []byte) {
	h.node.HandleFrame(peer.ID(from), frame)
}

var _ emunet.Handler = frameHandler{}
