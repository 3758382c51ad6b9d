package core

import (
	"time"

	"emcast/internal/emunet"
	"emcast/internal/peer"
)

// testNet is the protocol tests' deployment: one zero-latency emulated
// network, whose clock, timers and transport the nodes use as they do in
// the simulator, and a log of every frame they send. Delivered frames are
// the network's recycled buffers, so a node that kept a view of one past
// HandleFrame would read bytes a later frame wrote.
type testNet struct {
	*emunet.Network
	sent []sentFrame
}

// sentFrame is one recorded Send, with a copy of its bytes.
type sentFrame struct {
	from, to peer.ID
	data     []byte
}

// newTestNet returns a network for node IDs below 64; frames to an ID
// with no node attached are dropped.
func newTestNet() *testNet {
	return &testNet{Network: emunet.New(64, func(int, int) time.Duration { return 0 }, emunet.Config{})}
}

// env returns the environment of node self on the network.
func (tn *testNet) env(self peer.ID) *peer.Env {
	return &peer.Env{Transport: &netTransport{net: tn, self: self}, Clock: tn, Timers: tn}
}

// attach routes the frames delivered to node's ID into it.
func (tn *testNet) attach(node *Node) {
	tn.Register(int(node.env.Self()), emunet.HandlerFunc(func(from int, frame []byte) {
		node.HandleFrame(peer.ID(from), frame)
	}))
}

// advance runs the network for d of virtual time; advance(0) delivers
// every frame sent so far, and those sent in response.
func (tn *testNet) advance(d time.Duration) { tn.Run(tn.Now() + d) }

// netTransport is a node's peer.Transport on a testNet.
type netTransport struct {
	net  *testNet
	self peer.ID
}

// Send implements peer.Transport.
func (t *netTransport) Send(to peer.ID, frame []byte) {
	t.net.sent = append(t.net.sent, sentFrame{from: t.self, to: to, data: append([]byte(nil), frame...)})
	t.net.Send(int(t.self), int(to), frame)
}

// Local implements peer.Transport.
func (t *netTransport) Local() peer.ID { return t.self }
