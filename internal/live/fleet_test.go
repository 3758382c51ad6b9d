package live

import (
	"fmt"
	"testing"
	"time"

	"emcast"
	"emcast/internal/neem"
)

// TestFleetKillCountsDrain is the regression test for stat retirement on
// a graceful leave: the leaver stays summed by the fleet while it drains,
// so the departures it announces on the way out are counted — once — and
// the counters never dip while it moves to the retired total.
func TestFleetKillCountsDrain(t *testing.T) {
	f := newFleet(emcast.PeerConfig{Strategy: emcast.Eager}, 1, t.Logf)
	if err := f.start(4); err != nil {
		t.Fatal(err)
	}
	defer f.closeAll()

	// Traffic first, so every member holds a connection to the leaver.
	var msgs []emcast.MessageID
	for i := 0; i < 5; i++ {
		msgs = append(msgs, f.peer(i%4).Multicast([]byte(fmt.Sprintf("m%d", i))))
	}
	leaver := f.peer(3)
	for deadline := time.Now().Add(10 * time.Second); !deliveredAll(f, msgs); {
		if time.Now().After(deadline) {
			t.Fatal("multicasts not delivered everywhere within 10 s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A scrape running through the leave and the close never sees a
	// counter dip.
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		var last neem.Stats
		for {
			s := f.stats()
			if s.FramesSent < last.FramesSent || s.DeparturesSent < last.DeparturesSent {
				t.Errorf("fleet counters dipped: %+v after %+v", s, last)
			}
			last = s
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	f.Kill(3, true)
	f.closing.Wait()
	close(stop)
	<-scraped
	want := leaver.TransportStats().DeparturesSent
	if want == 0 {
		t.Fatal("the leaver announced no departure")
	}
	if got := f.stats().DeparturesSent; got != want {
		t.Fatalf("fleet counts %d departures sent, the leaver sent %d", got, want)
	}
}

func deliveredAll(f *fleet, msgs []emcast.MessageID) bool {
	for _, id := range f.LiveAll() {
		for _, m := range msgs {
			if !f.peer(id).Delivered(m) {
				return false
			}
		}
	}
	return true
}
