package kb

import (
	"fmt"
	"slices"

	"myrtus/internal/sim"
)

// This file implements Raft consensus (leader election + log replication
// + commit) in the tick-driven style: a Node is a pure state machine
// advanced by Tick and Step calls; outbound messages accumulate in an
// outbox drained by the surrounding transport. That keeps elections and
// replication fully deterministic under the simulation RNG and makes
// partitions trivial to inject in tests.

// NodeID identifies a Raft member. Zero means "none".
type NodeID int

// RoleType is the Raft role of a node.
type RoleType int

const (
	// Follower accepts entries from a leader.
	Follower RoleType = iota
	// Candidate is campaigning for leadership.
	Candidate
	// Leader replicates entries to followers.
	Leader
)

func (r RoleType) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("RoleType(%d)", int(r))
	}
}

// Entry is one replicated log entry.
type Entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// MsgType enumerates Raft RPCs.
type MsgType int

const (
	// MsgVote is a RequestVote RPC.
	MsgVote MsgType = iota
	// MsgVoteResp answers MsgVote.
	MsgVoteResp
	// MsgApp is an AppendEntries RPC (also the heartbeat).
	MsgApp
	// MsgAppResp answers MsgApp.
	MsgAppResp
	// MsgSnap installs a snapshot on a follower whose log lags behind the
	// leader's compaction point.
	MsgSnap
)

func (t MsgType) String() string {
	switch t {
	case MsgVote:
		return "MsgVote"
	case MsgVoteResp:
		return "MsgVoteResp"
	case MsgApp:
		return "MsgApp"
	case MsgAppResp:
		return "MsgAppResp"
	case MsgSnap:
		return "MsgSnap"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// Message is one Raft RPC or response.
type Message struct {
	Type     MsgType
	From, To NodeID
	Term     uint64
	// MsgVote: candidate's last log position. MsgApp: position preceding
	// Entries. MsgAppResp: highest index known replicated (on success) or
	// a hint for next-index backoff (on reject).
	LogIndex uint64
	LogTerm  uint64
	Entries  []Entry
	Commit   uint64
	Reject   bool
	Granted  bool
	// Snapshot payload (MsgSnap): state-machine image at SnapIndex.
	SnapIndex uint64
	SnapTerm  uint64
	SnapData  []byte
}

// Node is a single Raft participant.
type Node struct {
	id    NodeID
	peers []NodeID // all members including self

	term uint64
	vote NodeID
	// log[0] is a sentinel standing for the entry at snapIndex; absolute
	// index i lives at log[i-snapIndex].
	log       []Entry
	snapIndex uint64
	snapTerm  uint64
	snapData  []byte // leader-side image for lagging followers

	// pendingSnap holds a freshly installed snapshot until the host
	// applies it to the state machine (TakeSnapshot).
	pendingSnap      []byte
	pendingSnapIndex uint64
	hasPendingSnap   bool

	commit  uint64
	applied uint64

	role RoleType
	lead NodeID

	// Leader volatile state.
	next  map[NodeID]uint64
	match map[NodeID]uint64

	votes map[NodeID]bool

	elapsed          int
	electionTimeout  int // randomized per term in [base, 2*base)
	electionBase     int
	heartbeatTimeout int

	rng  *sim.RNG
	msgs []Message
}

// NewNode returns a follower with the given ID and full member list.
// electionBase and heartbeat are in ticks; typical values 10 and 1.
func NewNode(id NodeID, peers []NodeID, electionBase, heartbeat int, rng *sim.RNG) *Node {
	if electionBase <= heartbeat {
		panic("kb: election timeout must exceed heartbeat interval")
	}
	n := &Node{
		id:               id,
		peers:            append([]NodeID(nil), peers...),
		log:              []Entry{{}},
		electionBase:     electionBase,
		heartbeatTimeout: heartbeat,
		rng:              rng.Fork(fmt.Sprintf("raft-%d", id)),
	}
	n.becomeFollower(0, 0)
	return n
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// Role returns the node's current role.
func (n *Node) Role() RoleType { return n.role }

// Term returns the node's current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the known leader (0 when unknown).
func (n *Node) Leader() NodeID { return n.lead }

// Commit returns the commit index.
func (n *Node) Commit() uint64 { return n.commit }

// LastIndex returns the index of the last log entry.
func (n *Node) LastIndex() uint64 { return n.snapIndex + uint64(len(n.log)) - 1 }

// SnapshotIndex returns the compaction point (0 = never compacted).
func (n *Node) SnapshotIndex() uint64 { return n.snapIndex }

// LogSize returns the number of retained (uncompacted) entries.
func (n *Node) LogSize() int { return len(n.log) - 1 }

func (n *Node) lastTerm() uint64 {
	if len(n.log) == 1 {
		return n.snapTerm
	}
	return n.log[len(n.log)-1].Term
}

// termAt returns the term of the absolute index i (which must be
// ≥ snapIndex and ≤ LastIndex).
func (n *Node) termAt(i uint64) uint64 {
	if i == n.snapIndex {
		return n.snapTerm
	}
	return n.log[i-n.snapIndex].Term
}

// entryAt returns the entry at absolute index i (> snapIndex).
func (n *Node) entryAt(i uint64) Entry { return n.log[i-n.snapIndex] }

// CompactTo discards log entries up to and including index (which must
// not exceed the applied index), retaining data as the state-machine
// image lagging followers will be sent. The host calls this after
// persisting its own snapshot.
func (n *Node) CompactTo(index uint64, data []byte) error {
	if index <= n.snapIndex {
		return fmt.Errorf("kb: compact point %d not past snapshot %d", index, n.snapIndex)
	}
	if index > n.applied {
		return fmt.Errorf("kb: compact point %d beyond applied %d", index, n.applied)
	}
	term := n.termAt(index)
	kept := append([]Entry{{Term: term, Index: index}}, n.log[index-n.snapIndex+1:]...)
	n.log = kept
	n.snapIndex = index
	n.snapTerm = term
	n.snapData = append([]byte(nil), data...)
	return nil
}

// TakeSnapshot returns an installed-but-unapplied snapshot, if any; the
// host must restore its state machine from the data.
func (n *Node) TakeSnapshot() (data []byte, index uint64, ok bool) {
	if !n.hasPendingSnap {
		return nil, 0, false
	}
	n.hasPendingSnap = false
	return n.pendingSnap, n.pendingSnapIndex, true
}

func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

func (n *Node) resetElectionTimeout() {
	n.elapsed = 0
	n.electionTimeout = n.electionBase + n.rng.Intn(n.electionBase)
}

func (n *Node) becomeFollower(term uint64, lead NodeID) {
	n.role = Follower
	n.term = term
	n.lead = lead
	n.vote = 0
	n.votes = nil
	n.resetElectionTimeout()
}

func (n *Node) becomeCandidate() {
	n.role = Candidate
	n.term++
	n.vote = n.id
	n.lead = 0
	n.votes = map[NodeID]bool{n.id: true}
	n.resetElectionTimeout()
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.send(Message{Type: MsgVote, To: p, LogIndex: n.LastIndex(), LogTerm: n.lastTerm()})
	}
	if len(n.votes) >= n.quorum() { // single-node cluster
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = Leader
	n.lead = n.id
	n.elapsed = 0
	n.next = make(map[NodeID]uint64)
	n.match = make(map[NodeID]uint64)
	for _, p := range n.peers {
		n.next[p] = n.LastIndex() + 1
		n.match[p] = 0
	}
	n.match[n.id] = n.LastIndex()
	// Commit a no-op entry from the new term to pin down the commit index
	// (Raft §5.4.2: a leader may only count replicas for current-term
	// entries).
	n.appendEntry(nil)
	n.broadcastAppend()
}

func (n *Node) send(m Message) {
	m.From = n.id
	m.Term = n.term
	n.msgs = append(n.msgs, m)
}

// ReadMessages drains the outbox into a fresh slice the caller owns.
func (n *Node) ReadMessages() []Message { return n.appendMessages(nil) }

// appendMessages drains the outbox onto dst. The outbox keeps its
// backing array, so a transport that reuses dst drains without
// allocating.
func (n *Node) appendMessages(dst []Message) []Message {
	dst = append(dst, n.msgs...)
	clear(n.msgs)
	n.msgs = n.msgs[:0]
	return dst
}

// Tick advances the node's logical clock by one tick.
func (n *Node) Tick() {
	n.elapsed++
	switch n.role {
	case Leader:
		if n.elapsed >= n.heartbeatTimeout {
			n.elapsed = 0
			n.broadcastAppend()
		}
	default:
		if n.elapsed >= n.electionTimeout {
			n.becomeCandidate()
		}
	}
}

// Propose appends data to the log if this node is the leader. It reports
// whether the proposal was accepted.
func (n *Node) Propose(data []byte) bool {
	if n.role != Leader {
		return false
	}
	n.appendEntry(data)
	n.broadcastAppend()
	return true
}

func (n *Node) appendEntry(data []byte) {
	e := Entry{Term: n.term, Index: n.LastIndex() + 1, Data: data}
	n.log = append(n.log, e)
	n.match[n.id] = e.Index
	n.maybeCommit()
}

func (n *Node) broadcastAppend() {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(to NodeID) {
	prev := n.next[to] - 1
	if prev > n.LastIndex() {
		prev = n.LastIndex()
	}
	if prev < n.snapIndex {
		// The follower needs entries we compacted away: ship the image.
		n.send(Message{
			Type:      MsgSnap,
			To:        to,
			SnapIndex: n.snapIndex,
			SnapTerm:  n.snapTerm,
			SnapData:  n.snapData,
			Commit:    n.commit,
		})
		return
	}
	var ents []Entry
	if tail := n.log[prev-n.snapIndex+1:]; len(tail) > 0 {
		ents = make([]Entry, len(tail))
		copy(ents, tail)
	}
	n.send(Message{
		Type:     MsgApp,
		To:       to,
		LogIndex: prev,
		LogTerm:  n.termAt(prev),
		Entries:  ents,
		Commit:   n.commit,
	})
}

// Step processes one inbound message.
func (n *Node) Step(m Message) {
	if m.Term > n.term {
		lead := NodeID(0)
		if m.Type == MsgApp {
			lead = m.From
		}
		n.becomeFollower(m.Term, lead)
	}
	if m.Term < n.term {
		// Stale sender: tell it about our term (a MsgAppResp/VoteResp with
		// our higher term forces it to step down).
		switch m.Type {
		case MsgApp:
			n.send(Message{Type: MsgAppResp, To: m.From, Reject: true})
		case MsgVote:
			n.send(Message{Type: MsgVoteResp, To: m.From, Granted: false})
		}
		return
	}
	switch m.Type {
	case MsgVote:
		n.handleVote(m)
	case MsgVoteResp:
		n.handleVoteResp(m)
	case MsgApp:
		n.handleApp(m)
	case MsgAppResp:
		n.handleAppResp(m)
	case MsgSnap:
		n.handleSnap(m)
	}
}

func (n *Node) handleVote(m Message) {
	upToDate := m.LogTerm > n.lastTerm() ||
		(m.LogTerm == n.lastTerm() && m.LogIndex >= n.LastIndex())
	canVote := n.vote == 0 || n.vote == m.From
	if canVote && upToDate && n.role == Follower {
		n.vote = m.From
		n.resetElectionTimeout()
		n.send(Message{Type: MsgVoteResp, To: m.From, Granted: true})
		return
	}
	n.send(Message{Type: MsgVoteResp, To: m.From, Granted: false})
}

func (n *Node) handleVoteResp(m Message) {
	if n.role != Candidate {
		return
	}
	n.votes[m.From] = m.Granted
	granted := 0
	for _, g := range n.votes {
		if g {
			granted++
		}
	}
	if granted >= n.quorum() {
		n.becomeLeader()
	}
}

func (n *Node) handleApp(m Message) {
	if n.role != Follower {
		n.becomeFollower(m.Term, m.From)
	}
	n.lead = m.From
	n.resetElectionTimeout()

	// Entries at or below our snapshot are already committed and applied;
	// slide the match point up to the snapshot boundary.
	if m.LogIndex < n.snapIndex {
		drop := n.snapIndex - m.LogIndex
		if uint64(len(m.Entries)) <= drop {
			n.send(Message{Type: MsgAppResp, To: m.From, LogIndex: n.LastIndex()})
			return
		}
		m.Entries = m.Entries[drop:]
		m.LogIndex = n.snapIndex
		m.LogTerm = n.snapTerm
	}
	// Log-matching check at (m.LogIndex, m.LogTerm).
	if m.LogIndex > n.LastIndex() || n.termAt(m.LogIndex) != m.LogTerm {
		hint := n.LastIndex()
		if m.LogIndex < hint {
			hint = m.LogIndex
		}
		n.send(Message{Type: MsgAppResp, To: m.From, Reject: true, LogIndex: hint})
		return
	}
	// Append, truncating conflicts.
	for _, e := range m.Entries {
		if e.Index <= n.LastIndex() {
			if n.termAt(e.Index) == e.Term {
				continue
			}
			n.log = n.log[:e.Index-n.snapIndex]
		}
		n.log = append(n.log, e)
	}
	if m.Commit > n.commit {
		last := n.LastIndex()
		if m.Commit < last {
			n.commit = m.Commit
		} else {
			n.commit = last
		}
	}
	n.send(Message{Type: MsgAppResp, To: m.From, LogIndex: n.LastIndex()})
}

func (n *Node) handleAppResp(m Message) {
	if n.role != Leader {
		return
	}
	if m.Reject {
		// Back off next index using the follower's hint.
		next := m.LogIndex + 1
		if next < 1 {
			next = 1
		}
		if next < n.next[m.From] {
			n.next[m.From] = next
		} else if n.next[m.From] > 1 {
			n.next[m.From]--
		}
		n.sendAppend(m.From)
		return
	}
	if m.LogIndex > n.match[m.From] {
		n.match[m.From] = m.LogIndex
		n.next[m.From] = m.LogIndex + 1
		n.maybeCommit()
	}
}

// maybeCommit advances the commit index to the highest current-term index
// replicated on a quorum.
func (n *Node) maybeCommit() {
	if n.role != Leader {
		return
	}
	var buf [8]uint64
	matches := buf[:0]
	for _, p := range n.peers {
		matches = append(matches, n.match[p])
	}
	slices.Sort(matches)
	// The quorum-th highest match index is replicated on a quorum.
	candidate := matches[len(matches)-n.quorum()]
	// candidate > commit ≥ snapIndex, so termAt is always available here.
	if candidate > n.commit && n.termAt(candidate) == n.term {
		n.commit = candidate
	}
}

// handleSnap installs a leader snapshot on a lagging follower.
func (n *Node) handleSnap(m Message) {
	if n.role != Follower {
		n.becomeFollower(m.Term, m.From)
	}
	n.lead = m.From
	n.resetElectionTimeout()
	if m.SnapIndex <= n.commit {
		// Stale snapshot; tell the leader where we actually are.
		n.send(Message{Type: MsgAppResp, To: m.From, LogIndex: n.LastIndex()})
		return
	}
	n.log = []Entry{{Term: m.SnapTerm, Index: m.SnapIndex}}
	n.snapIndex = m.SnapIndex
	n.snapTerm = m.SnapTerm
	n.commit = m.SnapIndex
	n.applied = m.SnapIndex
	n.pendingSnap = append([]byte(nil), m.SnapData...)
	n.pendingSnapIndex = m.SnapIndex
	n.hasPendingSnap = true
	n.send(Message{Type: MsgAppResp, To: m.From, LogIndex: n.LastIndex()})
}

// TakeCommitted returns entries newly committed since the last call,
// advancing the applied cursor. Sentinel/no-op entries (nil data) are
// filtered out.
func (n *Node) TakeCommitted() []Entry { return n.appendCommitted(nil) }

// appendCommitted is TakeCommitted onto dst, for a host that reuses its
// apply buffer.
func (n *Node) appendCommitted(dst []Entry) []Entry {
	for n.applied < n.commit {
		n.applied++
		e := n.entryAt(n.applied)
		if len(e.Data) > 0 {
			dst = append(dst, e)
		}
	}
	return dst
}
