//go:build goexperiment.synctest

package transport

import (
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// TestLatentVirtualExact: in a synctest bubble the link charges every frame
// exactly. One frame arrives stall + FrameSize/rate after it was sent;
// back-to-back frames arrive their summed occupancy after the first was sent,
// however small each frame's share, from one sender or several at once.
func TestLatentVirtualExact(t *testing.T) {
	const (
		stall = 40 * time.Microsecond
		rate  = 125e6
	)
	synctest.Run(func() {
		a, b := NewPipe(64)
		l := NewWAN(a, stall, rate)
		defer b.Close()
		defer l.Close()
		frames := []Message{
			{Type: MsgBlockData, Arg: 1, Payload: make([]byte, 4096)},
			{Type: MsgIterEnd, Arg: 1},
			{Type: MsgBlockData, Arg: 2, Payload: make([]byte, 100)},
		}
		occupancy := func(m Message) time.Duration {
			return stall + time.Duration(int64(m.FrameSize())*int64(time.Second)/rate)
		}

		start := time.Now()
		if err := l.Send(frames[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		if got, want := time.Since(start), occupancy(frames[0]); got != want {
			t.Errorf("one frame took %v, want %v", got, want)
		}

		start = time.Now()
		var want time.Duration
		for _, m := range frames {
			if err := l.Send(m); err != nil {
				t.Fatal(err)
			}
			want += occupancy(m)
		}
		for range frames {
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if got := time.Since(start); got != want {
			t.Errorf("%d back-to-back frames took %v, want %v", len(frames), got, want)
		}

		// Four senders at once, each well past the queue and the link's
		// buffer: the link serialises them, so the last frame arrives the
		// sum of every occupancy after the first was sent.
		const senders, each = 4, 40
		start = time.Now()
		for range senders {
			go func() {
				for i := range each {
					if err := l.Send(Message{Type: MsgBlockData, Arg: uint64(i), Payload: make([]byte, 4096)}); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		for range senders * each {
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		want = senders * each * occupancy(frames[0])
		if got := time.Since(start); got != want {
			t.Errorf("%d frames from %d senders took %v, want %v", senders*each, senders, got, want)
		}
	})
}

// TestLatentVirtualBorrowsAndCloses: Send returns before the frame is due
// and may reuse its payload at once; Close returns at once too, and the frame
// still queued reaches the peer when due, ahead of the close. The link's
// goroutine then exits, which synctest.Run waits for.
func TestLatentVirtualBorrowsAndCloses(t *testing.T) {
	synctest.Run(func() {
		a, b := NewPipe(64)
		l := NewWAN(a, time.Second, 0)
		payload := []byte("abc")
		start := time.Now()
		if err := l.Send(Message{Type: MsgBlockData, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) != 0 {
			t.Error("Send waited for the link")
		}
		copy(payload, "xyz")
		m, err := b.Recv()
		if err != nil || string(m.Payload) != "abc" {
			t.Errorf("received %q, %v; want the bytes as sent", m.Payload, err)
		}
		start = time.Now()
		if err := l.Send(Message{Type: MsgError, Payload: []byte("disk full")}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if time.Since(start) != 0 {
			t.Error("Close waited for the link")
		}
		if err := l.Send(Message{Type: MsgIterEnd}); err != ErrClosed {
			t.Errorf("Send after Close: %v", err)
		}
		m, err = b.Recv()
		if err != nil || m.Type != MsgError || string(m.Payload) != "disk full" {
			t.Errorf("after Close the peer received %v %q, %v; want the queued ERROR", m.Type, m.Payload, err)
		}
		if got := time.Since(start); got != time.Second {
			t.Errorf("the queued frame arrived after %v, want its 1s on the link", got)
		}
		if _, err := b.Recv(); err != ErrClosed {
			t.Errorf("peer Recv after the queued frame: %v, want ErrClosed", err)
		}
		b.Close()
	})
}

// TestStripedVirtualFencesOverFullLinks: four senders fill a 4-stream bundle
// whose modelled links fall far more than latentBuffer behind, then one
// control frame goes out, then more data from four senders. The bubble must
// finish — no sender may wait on a lock another holds across a link send,
// or the clock stops — and the receiver must see single-stream order: every
// earlier data frame before the control frame, every later one after it.
func TestStripedVirtualFencesOverFullLinks(t *testing.T) {
	const streams, senders, each = 4, 4, 40
	synctest.Run(func() {
		a, b := make([]Conn, streams), make([]Conn, streams)
		for i := range a {
			p, q := NewPipe(64)
			a[i], b[i] = NewWAN(p, 50*time.Microsecond, 125e6/streams), q
		}
		src, dst := NewStriped(a), NewStriped(b)
		defer dst.Close()
		defer src.Close()
		data := func(first int) {
			var wg sync.WaitGroup
			for g := range senders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range each {
						m := Message{Type: MsgBlockData, Arg: uint64(first + g*each + i), Payload: make([]byte, 4096)}
						if err := src.Send(m); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
		}
		go func() {
			data(0)
			if err := src.Send(Message{Type: MsgIterEnd}); err != nil {
				t.Error(err)
			}
			data(senders * each)
		}()
		const half = senders * each
		seen, control := map[uint64]bool{}, false
		for range 2*half + 1 {
			m, err := dst.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type == MsgIterEnd {
				if len(seen) != half {
					t.Errorf("control frame after %d data frames, want %d", len(seen), half)
				}
				control = true
				continue
			}
			if early := m.Arg < half; early == control || seen[m.Arg] {
				t.Errorf("data frame %d received out of order (after the control frame: %v, again: %v)", m.Arg, control, seen[m.Arg])
			}
			seen[m.Arg] = true
			m.Release()
		}
	})
}
