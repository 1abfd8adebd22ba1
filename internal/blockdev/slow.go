package blockdev

import "time"

// The model blockdev.Slow charges a request: a fixed latency plus the
// request's bytes at a fixed rate. The figures are chosen, not measured on
// any device; what a row over Slow shows follows from them.
const (
	slowLatency = 100 * time.Microsecond
	slowRate    = 400e6 // bytes a second
)

// Slow is a device that takes time: each request it serves — one block, or
// one extent — first sleeps slowLatency plus its bytes at slowRate, then runs
// on the wrapped device. Requests sleep independently, as on a device with an
// unbounded queue, so concurrent requests overlap their waits. It sleeps on
// the time package, so a testing/synctest bubble prices it exactly.
type Slow struct{ Device }

// wait charges one request of size bytes.
func (s Slow) wait(size int) {
	time.Sleep(slowLatency + time.Duration(int64(size)*int64(time.Second)/slowRate))
}

// ReadBlock implements Device: one request.
func (s Slow) ReadBlock(n int, dst []byte) error {
	s.wait(s.BlockSize())
	return s.Device.ReadBlock(n, dst)
}

// WriteBlock implements Device: one request.
func (s Slow) WriteBlock(n int, src []byte) error {
	s.wait(s.BlockSize())
	return s.Device.WriteBlock(n, src)
}

// ReadExtent implements ExtentDevice: one request.
func (s Slow) ReadExtent(n, count int, dst []byte) error {
	s.wait(count * s.BlockSize())
	return ReadExtent(s.Device, n, count, dst)
}

// WriteExtent implements ExtentDevice: one request.
func (s Slow) WriteExtent(n, count int, src []byte) error {
	s.wait(count * s.BlockSize())
	return WriteExtent(s.Device, n, count, src)
}
