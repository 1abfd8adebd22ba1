package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"bbmig/internal/bitmap"
	"bbmig/internal/blockdev"
	"bbmig/internal/transport"
)

// FuzzDataExtent throws arbitrary MsgBlockData/MsgExtent/MsgZeroExtent
// headers and payload lengths at the one data-frame validator and the applier
// behind it, against a small device: whatever arrives, they never panic, never
// address a block outside the device, and never hand the sink anything but
// an extent with a payload of exactly its size, or, for a zero run, which is
// accepted only with no payload at all, none — which the destination's writer
// lands as zeros, leaving every other block untouched.
func FuzzDataExtent(f *testing.F) {
	const blocks, bs = 64, 32
	types := []transport.MsgType{transport.MsgBlockData, transport.MsgExtent, transport.MsgZeroExtent}
	f.Add(uint8(0), uint64(0), uint16(bs))                           // first block
	f.Add(uint8(0), uint64(blocks), uint16(bs))                      // one past the end
	f.Add(uint8(0), uint64(1)<<63, uint16(bs))                       // negative as an int
	f.Add(uint8(0), uint64(3), uint16(bs-1))                         // short payload
	f.Add(uint8(1), transport.ExtentArg(60, 4), uint16(4*bs))        // last extent
	f.Add(uint8(1), transport.ExtentArg(61, 4), uint16(4*bs))        // straddles the end
	f.Add(uint8(1), uint64(5), uint16(0))                            // zero count
	f.Add(uint8(1), uint64(1<<40-1)|uint64(1<<24-1)<<40, uint16(bs)) // start+count at the field limits
	f.Add(uint8(1), transport.ExtentArg(8, 2), uint16(3*bs))         // payload too long
	f.Add(uint8(2), transport.ExtentArg(0, blocks), uint16(0))       // the whole device as one zero run
	f.Add(uint8(2), transport.ExtentArg(62, 4), uint16(0))           // a zero run past the end
	f.Add(uint8(2), transport.ExtentArg(8, 2), uint16(2*bs))         // a zero run carrying bytes
	f.Fuzz(func(t *testing.T, kind uint8, arg uint64, payloadLen uint16) {
		dev := blockdev.NewMemDisk(blocks, bs)
		m := transport.Message{Type: types[int(kind)%len(types)], Arg: arg, Payload: make([]byte, payloadLen)}
		zero := m.Type == transport.MsgZeroExtent
		for i := range m.Payload {
			m.Payload[i] = 0xA5
		}
		ext, err := dataExtent(m, dev)
		if err == nil {
			if ext.Count < 1 || ext.Start < 0 || ext.End() > blocks || ext.End() < ext.Start {
				t.Fatalf("accepted extent [%d,+%d) outside the %d-block device", ext.Start, ext.Count, blocks)
			}
			if want := ext.Count * bs; zero && payloadLen != 0 || !zero && int(payloadLen) != want {
				t.Fatalf("accepted %d payload bytes for a %d-block %v", payloadLen, ext.Count, m.Type)
			}
		}
		mark := bytes.Repeat([]byte{0x5A}, blocks*bs) // what an untouched block still holds
		if err := blockdev.WriteExtent(dev, 0, blocks, mark); err != nil {
			t.Fatal(err)
		}
		d := &destRun{transfer: &transfer{dev: dev}}
		zeros := make([]byte, blockdev.RunBlocks*bs)
		seen := 0
		_, aerr := d.applyData(m, nil, func(ext bitmap.Extent, payload []byte) error {
			if ext.Start < 0 || ext.End() > blocks || len(payload) != ext.Count*bs && (!zero || len(payload) != 0) {
				t.Fatalf("sink handed [%d,+%d) with %d bytes", ext.Start, ext.Count, len(payload))
			}
			seen += ext.Count
			return d.writeExtent(ext, payload, zeros)
		})
		if (aerr == nil) != (err == nil) {
			t.Fatalf("validator said %v, applier said %v", err, aerr)
		}
		if err == nil && seen != ext.Count {
			t.Fatalf("sink saw %d blocks of a %d-block extent", seen, ext.Count)
		}
		if err != nil && seen != 0 {
			t.Fatalf("sink saw %d blocks of a rejected frame", seen)
		}
		got := make([]byte, blocks*bs)
		if err := blockdev.ReadExtent(dev, 0, blocks, got); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < blocks; n++ {
			want := byte(0x5A)
			if err == nil && n >= ext.Start && n < ext.End() {
				want = 0xA5
				if zero {
					want = 0
				}
			}
			if !bytes.Equal(got[n*bs:(n+1)*bs], bytes.Repeat([]byte{want}, bs)) {
				t.Fatalf("%v: block %d does not hold %#x throughout", m.Type, n, want)
			}
		}
	})
}

// FuzzSessionAck throws arbitrary MsgSessionAck payloads at the destination
// progress parser a reconnecting source trusts: whatever arrives it never
// panics, allocates in proportion to the payload and the disk and memory
// sizes it was given — never to a size the payload declares — and a record it
// accepts is a fixed point of marshal and parse.
func FuzzSessionAck(f *testing.F) {
	const blocks, pages = 4096, 512
	good, err := destProgress{
		flags: destResumed, diskIters: 1, memIters: 2,
		recvDiskNum: 2, recvDisk: newBitmapWith(blocks, 10, 5), recvMemNum: 3, recvMem: newBitmapWith(pages, 3, 2),
	}.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:9])
	f.Add(good[:len(good)-1])
	terabit := binary.LittleEndian.AppendUint64(nil, 1<<40|runsTag<<56)
	f.Add(append(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(good[:9:9], 1), uint32(len(terabit))), terabit...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := parseDestProgress(data, blocks, pages)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+8*len(data)+(blocks+pages)/4); grew > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		again, err := p.marshal()
		if err != nil {
			t.Fatal(err)
		}
		q, err := parseDestProgress(again, blocks, pages)
		if err != nil {
			t.Fatalf("re-parsing a marshalled record: %v", err)
		}
		same := func(a, b *bitmap.Bitmap) bool { return (a == nil) == (b == nil) && (a == nil || a.Equal(b)) }
		if p.flags != q.flags || p.diskIters != q.diskIters || p.memIters != q.memIters ||
			p.recvDiskNum != q.recvDiskNum || p.recvMemNum != q.recvMemNum || !same(p.recvDisk, q.recvDisk) || !same(p.recvMem, q.recvMem) {
			t.Fatalf("parse → marshal → parse moved the record: %+v → %+v", p, q)
		}
		if thrice, err := q.marshal(); err != nil || !bytes.Equal(thrice, again) {
			t.Fatalf("marshal is not stable on a parsed record (%v)", err)
		}
	})
}
