package core

import (
	"errors"
	"testing"

	"bbmig/internal/transport"
)

// TestReplyMailbox pins the source's one reply mailbox: whatever is in it
// that does not answer the outstanding request — the right type echoing a
// stale Arg, or the other reply type left over from a dead epoch — is
// discarded and its pooled payload released, and the destination finishing
// or failing while a request is outstanding surfaces as the error.
func TestReplyMailbox(t *testing.T) {
	// Not a migration: the source's own mailboxes, which the test fills.
	s := &sourceRun{transfer: &transfer{conn: nullConn{}}, replies: make(chan transport.Message, 8), doneCh: make(chan error, 1)}
	payload := func(fill byte) []byte {
		b := transport.GetBuf(64)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	released := func(b []byte) bool { return b[0] == 0xDB && b[len(b)-1] == 0xDB }

	asked := transport.ExtentArg(8, 4)
	staleArg, otherType, answer := payload(1), payload(2), payload(3)
	s.postReply(transport.Message{Type: transport.MsgHashWant, Arg: transport.ExtentArg(0, 4), Payload: staleArg})
	s.postReply(transport.Message{Type: transport.MsgDeltaSig, Arg: asked, Payload: otherType})
	s.postReply(transport.Message{Type: transport.MsgHashWant, Arg: asked, Payload: answer})
	got, err := s.waitReply(transport.MsgHashWant, asked)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &answer[0] || released(answer) {
		t.Fatal("waitReply did not hand out the matching reply's payload intact")
	}
	if !released(staleArg) {
		t.Fatal("reply with a stale Arg was not released")
	}
	if !released(otherType) {
		t.Fatal("reply of the other type was not released")
	}

	// A full mailbox never blocks the read loop: the oldest entry makes room.
	oldest := payload(4)
	s.postReply(transport.Message{Type: transport.MsgDeltaSig, Arg: 1, Payload: oldest})
	for i := 0; i < cap(s.replies); i++ {
		s.postReply(transport.Message{Type: transport.MsgDeltaSig, Arg: uint64(2 + i)})
	}
	if !released(oldest) || len(s.replies) != cap(s.replies) {
		t.Fatalf("overflow kept the oldest reply (mailbox holds %d)", len(s.replies))
	}

	// Every queued reply is stale for this request; then the destination ends.
	boom := errors.New("destination failed")
	s.doneCh <- boom
	if _, err := s.waitReply(transport.MsgHashWant, asked); !errors.Is(err, boom) {
		t.Fatalf("waitReply = %v, want the destination's error", err)
	}
	s.doneCh <- nil
	if _, err := s.waitReply(transport.MsgDeltaSig, deltaFenceArg); err == nil {
		t.Fatal("a clean DONE while a request was outstanding was not an error")
	}
}
