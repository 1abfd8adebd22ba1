package hostd

import (
	"bytes"
	"testing"

	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// FuzzAnnounce feeds unmarshalAnnounce, the first parser a listening daemon
// runs on bytes from the network. It must never panic, and an input it
// accepts must re-marshal to exactly the same bytes: a flag byte or flags
// bit it does not know is refused, not read as something else.
func FuzzAnnounce(f *testing.F) {
	good, err := announce{
		name: "guest-7", srcHost: "machine-A",
		geom: transport.Geometry{BlockSize: 4096, NumBlocks: 100, PageSize: 4096, NumPages: 50},
		kind: workload.Diabolic, work: true, dedup: true, swarm: true,
	}.marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:announceHeaderLen-1])                            // shorter than the header
	f.Add(good[:len(good)-1])                                    // truncated geometry
	f.Add(append(bytes.Clone(good), 0))                          // trailing byte
	f.Add(append([]byte{200, 0}, good[2:]...))                   // name length past the payload
	f.Add(append(bytes.Clone(good[:5]), good[6:]...))            // one header byte missing: lengths inconsistent
	f.Add(append(append(bytes.Clone(good[:6]), 1), good[6:]...)) // one header byte too many: lengths inconsistent
	zeroGeom := bytes.Clone(good)
	clear(zeroGeom[len(zeroGeom)-32:])
	f.Add(zeroGeom) // well-framed, geometry invalid
	for _, hdr := range [][2]byte{{5, 2}, {6, 1 << 2}, {6, 0xff}} {
		mut := bytes.Clone(good)
		mut[hdr[0]] = hdr[1]
		f.Add(mut) // workload flag 2, an unknown flags bit, every flags bit
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := unmarshalAnnounce(data)
		if err != nil {
			return
		}
		out, err := a.marshal()
		if err != nil {
			t.Fatalf("accepted announce %+v does not marshal: %v", a, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted input does not round-trip:\n in:  %x\n out: %x", data, out)
		}
	})
}
