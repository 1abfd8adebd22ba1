package core

import (
	"errors"
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// TestReplyMailbox pins the source's reply table: replies are taken by type
// and echoed Arg in whatever order they arrived, none is dropped while the
// request it answers may still be waited on, a reply past a window's worth
// or a second one to an unclaimed request fails the run instead of
// displacing one, a dead epoch's replies are released, and the destination
// finishing or failing while a request is outstanding surfaces as the error.
func TestReplyMailbox(t *testing.T) {
	// Not a migration: the source's own mailboxes, which the test fills.
	s := &sourceRun{transfer: &transfer{conn: nullConn{}}, doneCh: make(chan error, 1),
		replyCh: make(chan transport.Message, probeWindow), replies: make(map[[2]uint64]transport.Message)}
	payload := func(fill byte) []byte {
		b := transport.GetBuf(64)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	released := func(b []byte) bool { return b[0] == 0xDB && b[len(b)-1] == 0xDB }
	typ := func(i int) transport.MsgType {
		if i%2 == 1 {
			return transport.MsgDeltaSig
		}
		return transport.MsgHashWant
	}
	post := func(i int, p []byte) error {
		return s.postReply(transport.Message{Type: typ(i), Arg: transport.ExtentArg(8*i, 4), Payload: p})
	}

	// A full window's replies, arriving in another order than they are taken.
	var answers [probeWindow][]byte
	for i := probeWindow - 1; i >= 0; i-- {
		answers[i] = payload(byte(i + 1))
		if err := post(i, answers[i]); err != nil {
			t.Fatalf("reply %d of a full window refused: %v", i, err)
		}
	}
	// One more answers nothing outstanding: refused, displacing none.
	extra := payload(0x41)
	if err := post(probeWindow, extra); err == nil || !released(extra) {
		t.Fatalf("a reply past the window was filed (%v)", err)
	}
	for i := range answers {
		got, err := s.waitReply(typ(i), transport.ExtentArg(8*i, 4))
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &answers[i][0] || released(answers[i]) {
			t.Fatalf("reply %d: waitReply did not hand out the matching payload intact", i)
		}
	}

	// A dead epoch's replies are released with it, filed or not.
	filed, queued := payload(0x51), payload(0x52)
	s.replies[[2]uint64{uint64(transport.MsgHashWant), 0}] = transport.Message{Type: transport.MsgHashWant, Payload: filed}
	if err := post(1, queued); err != nil {
		t.Fatal(err)
	}
	s.dropReplies()
	if !released(filed) || !released(queued) || len(s.replies) != 0 || len(s.replyCh) != 0 {
		t.Fatal("dropReplies kept a dead epoch's reply")
	}

	// A second reply to a request whose first is still unclaimed.
	first, second := payload(0x61), payload(0x62)
	if err := errors.Join(post(3, first), post(3, second)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.waitReply(transport.MsgHashWant, 1); err == nil || !released(second) || released(first) {
		t.Fatalf("a second reply to one request was filed (%v)", err)
	}
	s.dropReplies()

	// Nothing answers the request; then the destination ends.
	boom := errors.New("destination failed")
	s.doneCh <- boom
	if _, err := s.waitReply(transport.MsgHashWant, transport.ExtentArg(8, 4)); !errors.Is(err, boom) {
		t.Fatalf("waitReply = %v, want the destination's error", err)
	}
	s.doneCh <- nil
	if _, err := s.waitReply(transport.MsgDeltaSig, deltaFenceArg); err == nil {
		t.Fatal("a clean DONE while a request was outstanding was not an error")
	}
}

// TestReplyNotResentAcrossEpochs: a reply whose link dies is dropped, not
// sent again on the link the source reconnects with, where it could answer a
// re-sent request with the same Arg. After the reconnect's session ack the
// new link carries only what the destination sends from then on.
func TestReplyNotResentAcrossEpochs(t *testing.T) {
	dead, _ := transport.NewPipe(8)
	dead.Close()
	fresh, source := transport.NewPipe(8)
	defer fresh.Close()
	cfg := Config{WaitReconnect: func(transport.SessionToken, uint32) (transport.Conn, uint32, error) {
		return fresh, 1, nil
	}}.withDefaults()
	tr := newDiskTransfer(cfg, blockdev.NewMemDisk(8, blockdev.BlockSize), dead, "test", "dest")
	tr.sess.setResumable(true)
	tr.destState = func() destProgress { return destProgress{} }
	want := transport.Message{Type: transport.MsgHashWant, Arg: transport.ExtentArg(0, 8), Payload: []byte{1, 0}}
	if err := errors.Join(tr.destReply(want), tr.destSend(transport.Message{Type: transport.MsgDone})); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []transport.MsgType{transport.MsgSessionAck, transport.MsgDone} {
		if m, err := source.Recv(); err != nil || m.Type != typ {
			t.Fatalf("the reconnected link carried %v (%v), want %v: a dead epoch's reply was sent again", m.Type, err, typ)
		}
	}
}
