//go:build !race

package kb

import (
	"fmt"
	"testing"
)

// maxPutAllocs bounds the heap allocations of one replicated Put of a
// registry-sized value on a 3-replica Cluster, amortized over log
// compactions. Measured at 12 with Go 1.24 on linux/amd64: the encoded
// command, the entries slice of each MsgApp that carries it, and per
// replica the decoded key and the stored copy of the value, plus history
// growth and compaction. Decoding entries through encoding/json, or
// reallocating the outbox, the inboxes or the apply buffer on every
// drain, costs at least three more.
const maxPutAllocs = 14

// The race detector instruments allocation, so this file is built only
// without it.
func TestClusterPutAllocs(t *testing.T) {
	c := NewCluster(3, 31)
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("/status/node-%02d", i)
	}
	value := make([]byte, 200)
	i := 0
	got := testing.AllocsPerRun(4*compactThreshold, func() {
		c.Put(keys[i%len(keys)], value)
		i++
	})
	if got > maxPutAllocs {
		t.Fatalf("allocs per 3-replica Put = %v, want ≤ %d", got, maxPutAllocs)
	}
	t.Logf("allocs per 3-replica Put = %v", got)
}
