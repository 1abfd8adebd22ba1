package core

import (
	"testing"

	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// FuzzDataExtent throws arbitrary MsgBlockData/MsgExtent headers and payload
// lengths at the one data-frame validator and the applier behind it, against
// a small device: whatever arrives, they never panic, never address a block
// outside the device, and never hand the sink anything but whole blocks cut
// from a payload of exactly the extent's size.
func FuzzDataExtent(f *testing.F) {
	const blocks, bs = 64, 32
	f.Add(false, uint64(0), uint16(bs))                          // first block
	f.Add(false, uint64(blocks), uint16(bs))                     // one past the end
	f.Add(false, uint64(1)<<63, uint16(bs))                      // negative as an int
	f.Add(false, uint64(3), uint16(bs-1))                        // short payload
	f.Add(true, transport.ExtentArg(60, 4), uint16(4*bs))        // last extent
	f.Add(true, transport.ExtentArg(61, 4), uint16(4*bs))        // straddles the end
	f.Add(true, uint64(5), uint16(0))                            // zero count
	f.Add(true, uint64(1<<40-1)|uint64(1<<24-1)<<40, uint16(bs)) // start+count at the field limits
	f.Add(true, transport.ExtentArg(8, 2), uint16(3*bs))         // payload too long
	f.Fuzz(func(t *testing.T, extent bool, arg uint64, payloadLen uint16) {
		dev := blockdev.NewMemDisk(blocks, bs)
		m := transport.Message{Type: transport.MsgBlockData, Arg: arg, Payload: make([]byte, payloadLen)}
		if extent {
			m.Type = transport.MsgExtent
		}
		ext, err := dataExtent(m, dev)
		if err == nil {
			if ext.Count < 1 || ext.Start < 0 || ext.End() > blocks || ext.End() < ext.Start {
				t.Fatalf("accepted extent [%d,+%d) outside the %d-block device", ext.Start, ext.Count, blocks)
			}
			if int(payloadLen) != ext.Count*bs {
				t.Fatalf("accepted %d payload bytes for a %d-block extent", payloadLen, ext.Count)
			}
		}
		tr := &transfer{dev: dev}
		seen := 0
		_, aerr := tr.applyData(m, nil, blockSink(bs, func(block int, data []byte) error {
			if block < 0 || block >= blocks || len(data) != bs {
				t.Fatalf("sink handed block %d with %d bytes", block, len(data))
			}
			seen++
			return dev.WriteBlock(block, data)
		}))
		if (aerr == nil) != (err == nil) {
			t.Fatalf("validator said %v, applier said %v", err, aerr)
		}
		if err == nil && seen != ext.Count {
			t.Fatalf("sink saw %d blocks of a %d-block extent", seen, ext.Count)
		}
		if err != nil && seen != 0 {
			t.Fatalf("sink saw %d blocks of a rejected frame", seen)
		}
	})
}
