package kb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestClusterBasicReplication(t *testing.T) {
	c := NewCluster(3, 1)
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	if c.Leader() == 0 {
		t.Fatal("no leader")
	}
	if rev := c.Put("/k", []byte("v")); rev <= 0 {
		t.Fatalf("Put rev = %d", rev)
	}
	kv, ok := c.Get("/k")
	if !ok || string(kv.Value) != "v" {
		t.Fatalf("Get = %v %v", kv, ok)
	}
	// All replicas converge after some ticks.
	c.Ticks(20)
	for _, id := range c.Members() {
		kv, ok := c.StaleGet(id, "/k")
		if !ok || string(kv.Value) != "v" {
			t.Fatalf("replica %d missing key: %v %v", id, kv, ok)
		}
	}
}

func TestClusterDelete(t *testing.T) {
	c := NewCluster(3, 2)
	c.Put("/k", []byte("v"))
	rev, existed := c.Delete("/k")
	if !existed || rev <= 0 {
		t.Fatalf("Delete = %d %v", rev, existed)
	}
	if _, ok := c.Get("/k"); ok {
		t.Fatal("deleted key readable")
	}
	_, existed = c.Delete("/nope")
	if existed {
		t.Fatal("phantom delete")
	}
}

func TestClusterRangeAndRevision(t *testing.T) {
	c := NewCluster(3, 3)
	c.Put("/a/1", []byte("x"))
	c.Put("/a/2", []byte("y"))
	c.Put("/b/3", []byte("z"))
	got := c.Range("/a/")
	if len(got) != 2 {
		t.Fatalf("Range = %v", got)
	}
	if c.Revision() <= 0 {
		t.Fatal("revision not advancing")
	}
}

func TestClusterSurvivesMinorityCrash(t *testing.T) {
	c := NewCluster(5, 4)
	c.Put("/before", []byte("1"))
	lead := c.Leader()
	c.Crash(lead)
	if rev := c.Put("/after", []byte("2")); rev <= 0 {
		t.Fatal("put failed after leader crash")
	}
	if nl := c.Leader(); nl == lead || nl == 0 {
		t.Fatalf("leader = %d (old %d)", nl, lead)
	}
	kv, ok := c.Get("/before")
	if !ok || string(kv.Value) != "1" {
		t.Fatal("pre-crash data lost")
	}
	// Recovered node catches up.
	c.Recover(lead)
	c.Ticks(50)
	if kv, ok := c.StaleGet(lead, "/after"); !ok || string(kv.Value) != "2" {
		t.Fatalf("recovered replica did not catch up: %v %v", kv, ok)
	}
}

func TestClusterPartitionAndHeal(t *testing.T) {
	c := NewCluster(5, 5)
	c.Put("/k", []byte("v0"))
	// Partition 2 | 3: majority side keeps working.
	c.Partition([]NodeID{1, 2}, []NodeID{3, 4, 5})
	if rev := c.Put("/k", []byte("v1")); rev <= 0 {
		t.Fatal("majority cannot commit during partition")
	}
	c.Heal()
	c.Ticks(100)
	kv, ok := c.Get("/k")
	if !ok || string(kv.Value) != "v1" {
		t.Fatalf("post-heal value = %q", kv.Value)
	}
	for _, id := range c.Members() {
		if kv, ok := c.StaleGet(id, "/k"); !ok || string(kv.Value) != "v1" {
			t.Fatalf("replica %d diverged: %v %v", id, kv, ok)
		}
	}
}

func TestClusterNoQuorumFails(t *testing.T) {
	c := NewCluster(3, 6)
	c.Crash(1)
	c.Crash(2)
	if rev := c.Put("/k", []byte("v")); rev != -1 {
		t.Fatalf("write without quorum returned %d", rev)
	}
}

func TestClusterLossyNetwork(t *testing.T) {
	c := NewCluster(3, 7)
	c.SetDropProbability(0.2)
	for i := 0; i < 10; i++ {
		if rev := c.Put(fmt.Sprintf("/k%d", i), []byte("v")); rev <= 0 {
			t.Fatalf("put %d failed under 20%% loss", i)
		}
	}
	delivered, dropped := c.Stats()
	if dropped == 0 {
		t.Fatal("no drops recorded at 20% loss")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	c.SetDropProbability(0)
	c.Ticks(50)
	if got := c.Range("/k"); len(got) != 10 {
		t.Fatalf("Range = %d keys, want 10", len(got))
	}
}

func TestClusterWatch(t *testing.T) {
	c := NewCluster(3, 8)
	w := c.Watch("/w/", 0)
	defer w.Cancel()
	c.Put("/w/x", []byte("1"))
	ev := <-w.Events()
	if ev.KV.Key != "/w/x" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestClusterLinearizableReadAfterFailover(t *testing.T) {
	c := NewCluster(5, 9)
	c.Put("/x", []byte("a"))
	c.Crash(c.Leader())
	c.Put("/x", []byte("b"))
	kv, ok := c.Get("/x")
	if !ok || string(kv.Value) != "b" {
		t.Fatalf("read after failover = %q %v", kv.Value, ok)
	}
}

func TestClusterSingleton(t *testing.T) {
	c := NewCluster(1, 10)
	if rev := c.Put("/k", []byte("v")); rev <= 0 {
		t.Fatal("singleton put failed")
	}
	if kv, ok := c.Get("/k"); !ok || string(kv.Value) != "v" {
		t.Fatal("singleton get failed")
	}
}

func TestRegistryOnCluster(t *testing.T) {
	c := NewCluster(3, 11)
	r := NewRegistry(c)
	lease, err := r.Register(ComponentRecord{
		Name: "edge-0", Layer: "edge", Kind: "hmpsoc",
		CPUCapacity: 4, MemCapacityMB: 2048,
		Accelerators:   []string{"fpga0"},
		SecurityLevels: []string{"low", "medium"},
		Protocols:      []string{"http", "mqtt"},
	}, 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := r.Component("edge-0")
	if !ok || rec.Kind != "hmpsoc" || rec.CPUCapacity != 4 {
		t.Fatalf("Component = %+v %v", rec, ok)
	}
	st, ok := r.Status("edge-0")
	if !ok || !st.Ready {
		t.Fatalf("Status = %+v %v", st, ok)
	}
	// Heartbeat lapse removes status but not the static record.
	r.Leases().Tick(2_000_000)
	if _, ok := r.Status("edge-0"); ok {
		t.Fatal("status survived heartbeat lapse")
	}
	if _, ok := r.Component("edge-0"); !ok {
		t.Fatal("record should persist")
	}
	_ = lease
}

func TestRegistryListAndSnapshot(t *testing.T) {
	s := NewStore()
	r := NewRegistry(s)
	for i, layer := range []string{"edge", "edge", "fog", "cloud"} {
		name := fmt.Sprintf("c%d", i)
		if _, err := r.Register(ComponentRecord{Name: name, Layer: layer, Kind: "x"}, 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.List("edge"); len(got) != 2 {
		t.Fatalf("List(edge) = %d", len(got))
	}
	if got := r.List(""); len(got) != 4 {
		t.Fatalf("List() = %d", len(got))
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot = %d", len(snap))
	}
	for _, e := range snap {
		if !e.Live {
			t.Fatalf("%s should be live", e.Record.Name)
		}
	}
	// Status update flows into snapshot.
	if err := r.UpdateStatus(ComponentStatus{Name: "c0", Ready: false, CPUUsed: 3}); err != nil {
		t.Fatal(err)
	}
	snap = r.Snapshot()
	if snap[0].Live {
		t.Fatal("c0 should not be live after Ready=false")
	}
	r.Deregister("c0")
	if got := r.List(""); len(got) != 3 {
		t.Fatalf("after Deregister = %d", len(got))
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry(NewStore())
	if _, err := r.Register(ComponentRecord{}, 0, 1); err == nil {
		t.Fatal("nameless registration accepted")
	}
	if err := r.UpdateStatus(ComponentStatus{}); err == nil {
		t.Fatal("nameless status accepted")
	}
	if _, ok := r.Component("ghost"); ok {
		t.Fatal("ghost component")
	}
	if _, ok := r.Status("ghost"); ok {
		t.Fatal("ghost status")
	}
}

func TestRegistryHistory(t *testing.T) {
	r := NewRegistry(NewStore())
	for i := int64(0); i < 5; i++ {
		if err := r.RecordHistory("edge-0/latency", i, map[string]float64{"ms": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := r.History("edge-0/latency")
	if len(got) != 5 {
		t.Fatalf("History = %d entries", len(got))
	}
	if string(got[0]) != `{"ms":0}` {
		t.Fatalf("first = %s", got[0])
	}
	if len(r.History("ghost")) != 0 {
		t.Fatal("ghost history")
	}
}

func TestRegistryWatchStatus(t *testing.T) {
	r := NewRegistry(NewStore())
	w := r.WatchStatus()
	defer w.Cancel()
	r.UpdateStatus(ComponentStatus{Name: "n1", Ready: true}) //nolint:errcheck
	ev := <-w.Events()
	if ev.KV.Key != PrefixStatus+"n1" {
		t.Fatalf("event key = %s", ev.KV.Key)
	}
}

func TestClusterCAS(t *testing.T) {
	c := NewCluster(3, 12)
	rev, ok := c.CAS("/election/leader", 0, []byte("agent-edge"))
	if !ok || rev <= 0 {
		t.Fatalf("create CAS = %d %v", rev, ok)
	}
	if _, ok := c.CAS("/election/leader", 0, []byte("agent-fog")); ok {
		t.Fatal("second create won")
	}
	kv, _ := c.Get("/election/leader")
	if string(kv.Value) != "agent-edge" {
		t.Fatalf("leader = %q", kv.Value)
	}
	// Replicas converge on the same winner.
	c.Ticks(30)
	for _, id := range c.Members() {
		if kv, ok := c.StaleGet(id, "/election/leader"); !ok || string(kv.Value) != "agent-edge" {
			t.Fatalf("replica %d: %v %v", id, kv, ok)
		}
	}
	// Update path.
	if _, ok := c.CAS("/election/leader", kv.ModRevision, []byte("agent-cloud")); !ok {
		t.Fatal("correct-rev cluster CAS failed")
	}
	if _, ok := c.CAS("/election/leader", kv.ModRevision, []byte("mallory")); ok {
		t.Fatal("stale-rev cluster CAS succeeded")
	}
}

func TestStoreSerializeRestore(t *testing.T) {
	s := NewStore()
	s.Put("/a", []byte("1"))
	s.Put("/b", []byte("2"))
	s.Put("/a", []byte("1b"))
	s.Delete("/b")
	data := s.Serialize()
	s2 := NewStore()
	if err := s2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if s2.Revision() != s.Revision() {
		t.Fatalf("revision %d vs %d", s2.Revision(), s.Revision())
	}
	kv, ok := s2.Get("/a")
	if !ok || string(kv.Value) != "1b" || kv.ModRevision != 3 || kv.Version != 2 {
		t.Fatalf("restored kv = %+v %v", kv, ok)
	}
	if _, ok := s2.Get("/b"); ok {
		t.Fatal("deleted key resurrected")
	}
	if err := s2.Restore([]byte("junk")); err == nil {
		t.Fatal("junk snapshot accepted")
	}
}

func TestClusterLogCompactionBoundsLog(t *testing.T) {
	c := NewCluster(3, 20)
	for i := 0; i < 4*compactThreshold; i++ {
		if rev := c.Put(fmt.Sprintf("/k%03d", i%50), []byte("v")); rev <= 0 {
			t.Fatalf("put %d failed", i)
		}
	}
	c.Ticks(30)
	c.mu.Lock()
	for _, id := range c.ids {
		if size := c.nodes[id].LogSize(); size > 2*compactThreshold {
			c.mu.Unlock()
			t.Fatalf("node %d log grew to %d entries", id, size)
		}
		if c.nodes[id].SnapshotIndex() == 0 {
			c.mu.Unlock()
			t.Fatalf("node %d never compacted", id)
		}
	}
	c.mu.Unlock()
	// Data still all present and linearizable.
	kv, ok := c.Get("/k007")
	if !ok || string(kv.Value) != "v" {
		t.Fatalf("post-compaction read = %v %v", kv, ok)
	}
}

func TestClusterSnapshotCatchUp(t *testing.T) {
	c := NewCluster(3, 21)
	c.Put("/seed", []byte("x"))
	victim := NodeID(0)
	for _, id := range c.Members() {
		if id != c.Leader() {
			victim = id
			break
		}
	}
	c.Crash(victim)
	// Write enough to force compaction past what the victim has.
	for i := 0; i < 3*compactThreshold; i++ {
		if rev := c.Put(fmt.Sprintf("/w%03d", i%64), []byte{byte(i)}); rev <= 0 {
			t.Fatalf("put %d failed", i)
		}
	}
	// The survivors must have compacted beyond the victim's log.
	c.mu.Lock()
	lead := c.leaderLocked()
	if c.nodes[lead].SnapshotIndex() == 0 {
		c.mu.Unlock()
		t.Fatal("leader never compacted; test premise broken")
	}
	c.mu.Unlock()
	// Recover: the victim can only catch up via MsgSnap.
	c.Recover(victim)
	c.Ticks(200)
	if kv, ok := c.StaleGet(victim, "/w010"); !ok || len(kv.Value) != 1 {
		t.Fatalf("victim did not catch up via snapshot: %v %v", kv, ok)
	}
	if kv, ok := c.StaleGet(victim, "/seed"); !ok || string(kv.Value) != "x" {
		t.Fatalf("victim lost pre-crash data: %v %v", kv, ok)
	}
	// And it keeps following new writes.
	c.Put("/after", []byte("y"))
	c.Ticks(30)
	if kv, ok := c.StaleGet(victim, "/after"); !ok || string(kv.Value) != "y" {
		t.Fatalf("victim not following after snapshot: %v %v", kv, ok)
	}
}

func TestClusterSnapshotReplicasByteIdentical(t *testing.T) {
	// Replica agreement through the real snapshot path: a follower
	// crashes, the others compact past its log, it catches up by MsgSnap,
	// and CAS and delete traffic follows. Every replica's image must then
	// be byte-identical to the leader's — which holds only if images are
	// deterministic and no reused inbox or outbox array aliases a message
	// still in use.
	c := NewCluster(3, 24)
	c.Put("/seed", []byte("x"))
	if _, ok := c.CAS("/owner", 0, []byte("a")); !ok {
		t.Fatal("create CAS failed")
	}
	lead := c.Leader()
	victim := NodeID(0)
	for _, id := range c.Members() {
		if id != lead {
			victim = id
			break
		}
	}
	c.Crash(victim)
	for i := 0; i < 3*compactThreshold; i++ {
		if rev := c.Put(fmt.Sprintf("/w%03d", i%64), []byte(fmt.Sprintf("v%d", i))); rev <= 0 {
			t.Fatalf("put %d failed", i)
		}
		if i%7 == 0 {
			c.Delete(fmt.Sprintf("/w%03d", (i+32)%64))
		}
	}
	c.mu.Lock()
	if have, need := c.nodes[victim].LastIndex(), c.nodes[lead].SnapshotIndex(); have >= need {
		c.mu.Unlock()
		t.Fatalf("victim log reaches %d, leader compacted only to %d; test premise broken", have, need)
	}
	c.mu.Unlock()
	c.Recover(victim)
	c.Ticks(200)

	kv, ok := c.Get("/owner")
	if !ok {
		t.Fatal("/owner missing")
	}
	if _, ok := c.CAS("/owner", kv.ModRevision, []byte("b")); !ok {
		t.Fatal("correct-rev CAS failed after catch-up")
	}
	if _, ok := c.CAS("/owner", kv.ModRevision, []byte("c")); ok {
		t.Fatal("stale-rev CAS succeeded after catch-up")
	}
	if _, ok := c.CAS("/fresh", 0, []byte("z")); !ok {
		t.Fatal("create CAS failed after catch-up")
	}
	for i := 0; i < 16; i++ {
		c.Delete(fmt.Sprintf("/w%03d", i))
		c.Put(fmt.Sprintf("/after%02d", i), []byte{byte(i)})
	}
	c.Ticks(30)

	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.stores[c.leaderLocked()].Serialize()
	for _, id := range c.ids {
		if got := c.stores[id].Serialize(); !bytes.Equal(got, want) {
			t.Errorf("replica %d image (%d bytes) differs from the leader's (%d bytes)", id, len(got), len(want))
		}
	}
	if kv, ok := c.stores[victim].Get("/owner"); !ok || string(kv.Value) != "b" {
		t.Fatalf("victim /owner = %q %v", kv.Value, ok)
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	// Several clients share one Cluster. The pump's reused buffers are
	// guarded only by Cluster.mu, so this is the test -race must see.
	c := NewCluster(3, 25)
	const workers, puts, claims = 4, 24, 8
	won := make([][]int, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("/own/%d", g)
			w := c.Watch(own, puts)
			defer w.Cancel()
			for i := 0; i < puts; i++ {
				v := []byte(fmt.Sprintf("%d-%d", g, i))
				if rev := c.Put(own, v); rev <= 0 {
					errs <- fmt.Errorf("worker %d: put %d failed", g, i)
					return
				}
				if kv, ok := c.Get(own); !ok || !bytes.Equal(kv.Value, v) {
					errs <- fmt.Errorf("worker %d: read %q after writing %q", g, kv.Value, v)
					return
				}
				// Every worker races for every claim; CAS-create admits one.
				if i < claims {
					if _, ok := c.CAS(fmt.Sprintf("/claim/%d", i), 0, []byte{byte(g)}); ok {
						won[g] = append(won[g], i)
					}
				}
			}
			for i := 0; i < puts; i++ {
				if ev := <-w.Events(); string(ev.KV.Value) != fmt.Sprintf("%d-%d", g, i) {
					errs <- fmt.Errorf("worker %d: watch event %d = %q", g, i, ev.KV.Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	winner := make(map[int]int)
	for g, ws := range won {
		for _, i := range ws {
			if prev, dup := winner[i]; dup {
				t.Fatalf("claim %d won by workers %d and %d", i, prev, g)
			}
			winner[i] = g
		}
	}
	for i := 0; i < claims; i++ {
		g, ok := winner[i]
		if !ok {
			t.Fatalf("claim %d has no winner", i)
		}
		if kv, ok := c.Get(fmt.Sprintf("/claim/%d", i)); !ok || !bytes.Equal(kv.Value, []byte{byte(g)}) {
			t.Fatalf("claim %d holds %v, winner was %d", i, kv.Value, g)
		}
	}
	for g := 0; g < workers; g++ {
		kv, ok := c.Get(fmt.Sprintf("/own/%d", g))
		if !ok || string(kv.Value) != fmt.Sprintf("%d-%d", g, puts-1) || kv.Version != puts {
			t.Fatalf("worker %d final = %q version %d", g, kv.Value, kv.Version)
		}
	}
	// Every put and exactly one CAS per claim took a revision.
	if rev, want := c.Revision(), int64(workers*puts+claims); rev != want {
		t.Fatalf("revision = %d, want %d", rev, want)
	}
	c.Ticks(30)
	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.stores[c.leaderLocked()].Serialize()
	for _, id := range c.ids {
		if !bytes.Equal(c.stores[id].Serialize(), want) {
			t.Errorf("replica %d diverged from the leader", id)
		}
	}
}

func TestClusterFailoverWithLaggingFollowerUnderLoss(t *testing.T) {
	// The compound recovery scenario checkpoint durability leans on: a
	// follower falls so far behind that the leader compacts past its log,
	// the network starts dropping 15% of messages, the follower comes back
	// and must catch up via snapshot transfer through the loss, and then
	// the leader itself crashes. The cluster must elect a new leader and
	// every live replica must converge on all committed keys.
	c := NewCluster(5, 23)
	c.Put("/seed", []byte("x"))
	oldLead := c.Leader()
	laggard := NodeID(0)
	for _, id := range c.Members() {
		if id != oldLead {
			laggard = id
			break
		}
	}
	c.Crash(laggard)
	// Push the log well past the compaction threshold so the laggard's
	// log tail no longer exists anywhere — only a snapshot can help it.
	for i := 0; i < 3*compactThreshold; i++ {
		if rev := c.Put(fmt.Sprintf("/w%03d", i%64), []byte{byte(i)}); rev <= 0 {
			t.Fatalf("put %d failed", i)
		}
	}
	c.mu.Lock()
	if c.nodes[oldLead].SnapshotIndex() == 0 {
		c.mu.Unlock()
		t.Fatal("leader never compacted; test premise broken")
	}
	c.mu.Unlock()
	// Lossy recovery: the snapshot transfer has to survive drops.
	c.SetDropProbability(0.15)
	c.Recover(laggard)
	c.Ticks(400)
	if kv, ok := c.StaleGet(laggard, "/seed"); !ok || string(kv.Value) != "x" {
		t.Fatalf("laggard lost pre-crash data under loss: %v %v", kv, ok)
	}
	if _, dropped := c.Stats(); dropped == 0 {
		t.Fatal("no drops recorded at 15% loss; test premise broken")
	}
	// Now the leader dies too. A new one must emerge and keep committing.
	c.Crash(oldLead)
	if rev := c.Put("/after-failover", []byte("y")); rev <= 0 {
		t.Fatal("cluster could not commit after leader crash")
	}
	newLead := c.Leader()
	if newLead == 0 || newLead == oldLead {
		t.Fatalf("leader = %d (old %d)", newLead, oldLead)
	}
	// Quiesce the network and verify every live replica holds the full
	// committed history — snapshot-recovered laggard included.
	c.SetDropProbability(0)
	c.Ticks(200)
	for _, id := range c.Members() {
		if id == oldLead {
			continue
		}
		for _, key := range []string{"/seed", "/w010", "/after-failover"} {
			if kv, ok := c.StaleGet(id, key); !ok || len(kv.Value) == 0 {
				t.Fatalf("replica %d missing %s after failover: %v %v", id, key, kv, ok)
			}
		}
	}
}

func TestCompactToValidation(t *testing.T) {
	c := NewCluster(1, 22)
	c.Put("/k", []byte("v"))
	c.mu.Lock()
	n := c.nodes[1]
	if err := n.CompactTo(0, nil); err == nil {
		t.Fatal("compact to 0 accepted")
	}
	if err := n.CompactTo(n.Commit()+10, nil); err == nil {
		t.Fatal("compact beyond applied accepted")
	}
	c.mu.Unlock()
}
