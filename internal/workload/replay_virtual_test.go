//go:build goexperiment.synctest

package workload

import (
	"testing"
	"testing/synctest"
	"time"

	"bbmig/internal/blockdev"
)

// TestReplayVirtualPacing replays 30 s of a web server's workload at speed 1
// in a synctest bubble: Replay sleeps until each action is due, so the
// replay ends exactly at the last action before the horizon.
func TestReplayVirtualPacing(t *testing.T) {
	synctest.Run(func() {
		dev := blockdev.NewMemDisk(testDiskBlocks, blockdev.BlockSize)
		start := time.Now()
		st, err := Replay(NewWebServer(testDiskBlocks, 5), 1, 30*time.Second, 1, func(r blockdev.Request) error {
			if r.Op == blockdev.Write {
				return dev.WriteBlock(r.Block, r.Data)
			}
			return dev.ReadBlock(r.Block, r.Data)
		}, nil)
		elapsed := time.Since(start)
		if err != nil || st.Writes == 0 || st.Reads == 0 {
			t.Errorf("replay: %+v, %v", st, err)
		}
		if elapsed == 0 || elapsed > 30*time.Second {
			t.Errorf("a 30s replay at speed 1 took %v of virtual time", elapsed)
		}
	})
}
