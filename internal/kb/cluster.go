package kb

import (
	"fmt"
	"sort"
	"sync"

	"myrtus/internal/sim"
)

// Backend is the KV contract shared by a single-replica Store and a
// Raft-replicated Cluster. Higher layers (Resource Registry, MIRTO
// proxies) program against Backend so the same code runs on either.
type Backend interface {
	Put(key string, value []byte) int64
	PutLease(key string, value []byte, lease int64) int64
	Delete(key string) (int64, bool)
	Get(key string) (KV, bool)
	Range(prefix string) []KV
	Watch(prefix string, buffer int) *Watcher
	Revision() int64
	// CAS writes value iff the key's ModRevision equals expectRev
	// (0 = must not exist); it reports whether the swap happened.
	CAS(key string, expectRev int64, value []byte) (int64, bool)
}

var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Cluster)(nil)
)

// Cluster is a Raft-replicated KB: N nodes, each applying the committed
// log to its own MVCC Store replica. The convenience mutators (Put,
// Delete, …) are synchronous: they propose, then pump the message fabric
// until the command applies on the leader, which mirrors how control-plane
// clients use etcd.
//
// Cluster is safe for concurrent use; internally a single mutex serializes
// the deterministic pump.
type Cluster struct {
	mu     sync.Mutex
	ids    []NodeID
	nodes  map[NodeID]*Node
	stores map[NodeID]*Store
	alive  map[NodeID]bool
	inbox  map[NodeID][]Message
	// out and ents are reused buffers each node's outbox and newly
	// committed entries drain into.
	out  []Message
	ents []Entry

	// blocked[a][b] severs the a→b link (partition injection).
	blocked map[NodeID]map[NodeID]bool
	dropP   float64
	rng     *sim.RNG

	delivered uint64
	dropped   uint64
}

// NewCluster creates a cluster of n nodes (IDs 1..n) and elects a leader.
func NewCluster(n int, seed uint64) *Cluster {
	if n < 1 {
		panic("kb: cluster needs at least one node")
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	rng := sim.NewRNG(seed)
	c := &Cluster{
		ids:     ids,
		nodes:   make(map[NodeID]*Node),
		stores:  make(map[NodeID]*Store),
		alive:   make(map[NodeID]bool),
		inbox:   make(map[NodeID][]Message),
		blocked: make(map[NodeID]map[NodeID]bool),
		rng:     rng.Fork("transport"),
	}
	for _, id := range ids {
		c.nodes[id] = NewNode(id, ids, 10, 1, rng)
		c.stores[id] = NewStore()
		c.alive[id] = true
		c.blocked[id] = make(map[NodeID]bool)
	}
	c.mu.Lock()
	c.pumpUntilLeader(2000)
	c.mu.Unlock()
	return c
}

// Size returns the number of members.
func (c *Cluster) Size() int { return len(c.ids) }

// Leader returns the current leader ID (0 when none).
func (c *Cluster) Leader() NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaderLocked()
}

func (c *Cluster) leaderLocked() NodeID {
	// Prefer the highest term: a partitioned old leader keeps its role
	// (no peer can reach it to demote it), and picking it would route
	// every proposal into a log that can never commit.
	var best NodeID
	var bestTerm uint64
	for _, id := range c.ids {
		if c.alive[id] && c.nodes[id].Role() == Leader && c.nodes[id].Term() > bestTerm {
			best, bestTerm = id, c.nodes[id].Term()
		}
	}
	return best
}

// tick advances every live node one tick and delivers all messages.
func (c *Cluster) tickLocked() {
	for _, id := range c.ids {
		if c.alive[id] {
			c.nodes[id].Tick()
		}
	}
	c.routeLocked()
	// Drain steps until quiescent so a tick's consequences settle.
	for i := 0; i < 64; i++ {
		if !c.stepLocked() {
			break
		}
	}
	c.applyLocked()
}

// routeLocked moves outboxes into inboxes, honoring partitions and drops.
func (c *Cluster) routeLocked() {
	for _, id := range c.ids {
		c.out = c.nodes[id].appendMessages(c.out[:0])
		if c.alive[id] { // a crashed node's output is discarded
			for _, m := range c.out {
				if !c.alive[m.To] || c.blocked[id][m.To] {
					c.dropped++
					continue
				}
				if c.dropP > 0 && c.rng.Bool(c.dropP) {
					c.dropped++
					continue
				}
				c.inbox[m.To] = append(c.inbox[m.To], m)
				c.delivered++
			}
		}
		clear(c.out) // drop references to entries and snapshot images
	}
}

// stepLocked delivers queued inbox messages; reports whether any work was
// done.
func (c *Cluster) stepLocked() bool {
	work := false
	for _, id := range c.ids {
		msgs := c.inbox[id]
		if len(msgs) == 0 {
			continue
		}
		if c.alive[id] {
			work = true
			for _, m := range msgs {
				c.nodes[id].Step(m)
			}
		}
		// Keep the backing array for the next delivery; Step copies what
		// it retains out of a message.
		clear(msgs)
		c.inbox[id] = msgs[:0]
	}
	if work {
		c.routeLocked()
	}
	return work
}

// compactThreshold is the retained-log size that triggers snapshotting.
const compactThreshold = 96

// applyLocked applies newly committed entries on every replica, installs
// any received snapshots, and compacts logs that outgrew the threshold.
func (c *Cluster) applyLocked() {
	for _, id := range c.ids {
		n := c.nodes[id]
		st := c.stores[id]
		// A freshly installed snapshot replaces local state wholesale. A
		// leader-produced image that fails its checksum is a broken
		// invariant: skipping it would silently diverge this replica.
		if data, _, ok := n.TakeSnapshot(); ok {
			if err := st.Restore(data); err != nil {
				panic(fmt.Sprintf("kb: node %d: installing snapshot: %v", id, err))
			}
		}
		c.ents = n.appendCommitted(c.ents[:0])
		for _, e := range c.ents {
			cmd, err := decodeCommand(e.Data)
			if err != nil {
				continue // malformed entries are ignored by the state machine
			}
			switch cmd.Op {
			case opPut:
				st.PutLease(cmd.Key, cmd.Value, cmd.Lease)
			case opDelete:
				st.Delete(cmd.Key)
			case opCAS:
				// Deterministic: every replica evaluates the precondition
				// against the same applied prefix.
				st.CAS(cmd.Key, cmd.ExpectRev, cmd.Value)
			}
		}
		clear(c.ents)
		// Log compaction: snapshot the applied state and truncate. Only
		// serialize when the compaction point actually advanced — a
		// partitioned replica whose commit is frozen would otherwise pay
		// for a full-store marshal on every tick just to have CompactTo
		// reject it.
		if applied := n.Commit(); n.LogSize() > compactThreshold && applied > n.SnapshotIndex() {
			if err := n.CompactTo(applied, st.Serialize()); err != nil {
				panic(fmt.Sprintf("kb: node %d: %v", id, err)) // both preconditions were just checked
			}
		}
	}
}

func (c *Cluster) pumpUntilLeader(maxTicks int) NodeID {
	for i := 0; i < maxTicks; i++ {
		if id := c.leaderLocked(); id != 0 {
			return id
		}
		c.tickLocked()
	}
	return c.leaderLocked()
}

// propose replicates cmd and waits for it to apply on the leader replica.
func (c *Cluster) propose(cmd command) error {
	data := encodeCommand(cmd)
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; attempt < 8; attempt++ {
		lead := c.pumpUntilLeader(2000)
		if lead == 0 {
			return fmt.Errorf("kb: no quorum, cannot elect a leader")
		}
		n := c.nodes[lead]
		if !n.Propose(data) {
			continue
		}
		idx := n.LastIndex()
		term := n.Term()
		for i := 0; i < 2000; i++ {
			c.tickLocked()
			if !c.alive[lead] || c.nodes[lead].Term() != term || c.nodes[lead].Role() != Leader {
				break // leadership lost; retry
			}
			if c.nodes[lead].Commit() >= idx {
				return nil
			}
		}
	}
	return fmt.Errorf("kb: proposal failed to commit")
}

// leaderStore returns the store of the current leader.
func (c *Cluster) leaderStore() *Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	lead := c.pumpUntilLeader(2000)
	if lead == 0 {
		// Fall back to node 1's replica; reads may be stale but callers
		// without quorum asked for it.
		return c.stores[c.ids[0]]
	}
	return c.stores[lead]
}

// Put replicates a write and returns the leader-store revision.
func (c *Cluster) Put(key string, value []byte) int64 {
	return c.PutLease(key, value, 0)
}

// PutLease replicates a write bound to a lease ID.
func (c *Cluster) PutLease(key string, value []byte, lease int64) int64 {
	if err := c.propose(command{Op: opPut, Key: key, Value: value, Lease: lease}); err != nil {
		return -1
	}
	return c.leaderStore().Revision()
}

// Delete replicates a deletion.
func (c *Cluster) Delete(key string) (int64, bool) {
	st := c.leaderStore()
	_, existed := st.Get(key)
	if err := c.propose(command{Op: opDelete, Key: key}); err != nil {
		return -1, false
	}
	return c.leaderStore().Revision(), existed
}

// CAS replicates a compare-and-swap. Success is judged by reading the
// leader replica after commit: the swap happened iff the key now carries
// our value at a revision past the precondition.
func (c *Cluster) CAS(key string, expectRev int64, value []byte) (int64, bool) {
	if err := c.propose(command{Op: opCAS, Key: key, Value: value, ExpectRev: expectRev}); err != nil {
		return -1, false
	}
	st := c.leaderStore()
	kv, ok := st.Get(key)
	if !ok {
		return st.Revision(), false
	}
	swapped := kv.ModRevision > expectRev && string(kv.Value) == string(value)
	return st.Revision(), swapped
}

// Get performs a linearizable read: it commits a no-op barrier, then reads
// the leader replica.
func (c *Cluster) Get(key string) (KV, bool) {
	if err := c.propose(command{Op: opNop}); err != nil {
		return KV{}, false
	}
	return c.leaderStore().Get(key)
}

// StaleGet reads the given replica without a barrier (follower read).
func (c *Cluster) StaleGet(id NodeID, key string) (KV, bool) {
	c.mu.Lock()
	st := c.stores[id]
	c.mu.Unlock()
	if st == nil {
		return KV{}, false
	}
	return st.Get(key)
}

// Range lists keys under prefix from the leader replica after a barrier.
func (c *Cluster) Range(prefix string) []KV {
	if err := c.propose(command{Op: opNop}); err != nil {
		return nil
	}
	return c.leaderStore().Range(prefix)
}

// Watch attaches a watcher to the leader replica.
func (c *Cluster) Watch(prefix string, buffer int) *Watcher {
	return c.leaderStore().Watch(prefix, buffer)
}

// Revision returns the leader replica's revision.
func (c *Cluster) Revision() int64 { return c.leaderStore().Revision() }

// Crash stops a node (it neither ticks nor receives messages). Its log is
// retained, modelling a persisted disk.
func (c *Cluster) Crash(id NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive[id] = false
	c.inbox[id] = nil
}

// Recover restarts a crashed node.
func (c *Cluster) Recover(id NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive[id] = true
}

// Partition severs links between the listed groups (full connectivity
// within each group, none across). Nodes in no group keep all links.
func (c *Cluster) Partition(groups ...[]NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	group := make(map[NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			group[id] = gi + 1
		}
	}
	for _, a := range c.ids {
		for _, b := range c.ids {
			ga, ok1 := group[a]
			gb, ok2 := group[b]
			c.blocked[a][b] = ok1 && ok2 && ga != gb
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.ids {
		for _, b := range c.ids {
			c.blocked[a][b] = false
		}
	}
}

// SetDropProbability sets the i.i.d. message-loss probability.
func (c *Cluster) SetDropProbability(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropP = p
}

// Ticks advances the whole cluster by n ticks (for tests that want time to
// pass without issuing requests).
func (c *Cluster) Ticks(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.tickLocked()
	}
}

// Stats reports transport counters.
func (c *Cluster) Stats() (delivered, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered, c.dropped
}

// Members returns the sorted member IDs.
func (c *Cluster) Members() []NodeID {
	out := append([]NodeID(nil), c.ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
