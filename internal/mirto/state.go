package mirto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"myrtus/internal/sim"
)

// This file implements the stateful-stage model: TOSCA stages declared
// "stateful: 1" carry a per-placement state cell — windowed counters and
// aggregates updated once per served request — plus a bounded dedup
// window (exactly-once across serve-path retries) and a bounded apply
// journal (replayed on restore after a failover). The cell's contents
// travel through a versioned binary codec: full checkpoints and delta
// records written into the raft-replicated KB by the Checkpointer
// (checkpoint.go) and read back on the MAPE-K restore path.

// stateWindows is the number of per-window aggregate buckets a cell
// retains; stateWindowLen is one bucket's span of virtual time.
const (
	stateWindows   = 8
	stateWindowLen = sim.Second
)

// DefaultStateBound is the default size of both the dedup window and the
// apply journal. The two bounds must satisfy dedup ≥ journal: every
// journal entry predating a checkpoint must still be visible in that
// checkpoint's dedup window, or restore replay could double-apply it.
const DefaultStateBound = 256

// JournalEntry is one applied request: the deterministic request ID, the
// batch size it carried, and the virtual time it was applied.
type JournalEntry struct {
	ReqID uint64
	Items int64
	At    sim.Time
}

// StageState is the logical state of one stateful stage placement:
// cumulative applied counters, an XOR fingerprint of applied request IDs
// (so two states with equal counts but different applied sets still
// differ), per-window apply buckets, and the bounded dedup window.
type StageState struct {
	Stage string
	// Count is the number of requests applied; Items the total batch items
	// folded in. Xor accumulates applied request IDs (order-independent).
	Count uint64
	Items int64
	Xor   uint64
	// LastApply is the virtual time of the newest apply.
	LastApply sim.Time
	// WindowBase indexes the newest bucket's window (LastApply /
	// stateWindowLen); Windows[i] counts applies in window WindowBase-i.
	WindowBase uint64
	Windows    [stateWindows]uint64
	// Dedup is the bounded window of the most recently applied request
	// IDs, oldest first.
	Dedup []uint64
}

// apply folds one request into the state. The caller has already
// performed dedup.
func (s *StageState) apply(reqID uint64, items int64, at sim.Time, bound int) {
	s.Count++
	s.Items += items
	s.Xor ^= reqID
	if at > s.LastApply {
		s.LastApply = at
	}
	w := uint64(at / stateWindowLen)
	if w > s.WindowBase {
		shift := w - s.WindowBase
		if shift >= stateWindows {
			s.Windows = [stateWindows]uint64{}
		} else {
			copy(s.Windows[shift:], s.Windows[:stateWindows-shift])
			for i := uint64(0); i < shift; i++ {
				s.Windows[i] = 0
			}
		}
		s.WindowBase = w
	}
	if idx := s.WindowBase - w; idx < stateWindows {
		s.Windows[idx]++
	}
	s.Dedup = append(s.Dedup, reqID)
	if len(s.Dedup) > bound {
		s.Dedup = s.Dedup[len(s.Dedup)-bound:]
	}
}

// seen reports whether reqID is inside the dedup window.
func (s *StageState) seen(reqID uint64) bool {
	for _, id := range s.Dedup {
		if id == reqID {
			return true
		}
	}
	return false
}

// Fingerprint renders the logical content of the state — applied count,
// item sum, and the request-ID XOR — as canonical bytes. This is the
// unit of the chaos divergence check: timing-indexed fields (windows,
// LastApply) are excluded by construction, because a recovered run
// applies the same requests at later virtual times than a fault-free
// one.
func (s *StageState) Fingerprint() []byte {
	b := make([]byte, 24)
	binary.BigEndian.PutUint64(b[0:], s.Count)
	binary.BigEndian.PutUint64(b[8:], uint64(s.Items))
	binary.BigEndian.PutUint64(b[16:], s.Xor)
	return b
}

// Codec wire constants. Full images and delta records carry distinct
// magics so a reader can never confuse the two; both end in a CRC-32 of
// everything before it.
const (
	stateMagicFull  = "MYSF"
	stateMagicDelta = "MYSD"
	stateCodecV1    = 1
	// maxCodecList bounds decoded list lengths so corrupt input cannot
	// trigger huge allocations.
	maxCodecList = 1 << 16
)

// EncodeState renders a full checkpoint image of the state.
func EncodeState(s *StageState) []byte {
	b := make([]byte, 0, 64+8*len(s.Dedup))
	b = append(b, stateMagicFull...)
	b = append(b, stateCodecV1)
	b = appendString(b, s.Stage)
	b = appendU64(b, s.Count)
	b = appendU64(b, uint64(s.Items))
	b = appendU64(b, s.Xor)
	b = appendU64(b, uint64(s.LastApply))
	b = appendU64(b, s.WindowBase)
	for _, w := range s.Windows {
		b = appendU64(b, w)
	}
	b = appendU32(b, uint32(len(s.Dedup)))
	for _, id := range s.Dedup {
		b = appendU64(b, id)
	}
	return appendCRC(b)
}

// DecodeState parses a full checkpoint image, rejecting anything with a
// bad magic, version, length, list bound, or checksum.
func DecodeState(data []byte) (*StageState, error) {
	r, err := openRecord(data, stateMagicFull)
	if err != nil {
		return nil, err
	}
	s := &StageState{}
	if s.Stage, err = r.str(); err != nil {
		return nil, err
	}
	var u uint64
	if s.Count, err = r.u64(); err != nil {
		return nil, err
	}
	if u, err = r.u64(); err != nil {
		return nil, err
	}
	s.Items = int64(u)
	if s.Xor, err = r.u64(); err != nil {
		return nil, err
	}
	if u, err = r.u64(); err != nil {
		return nil, err
	}
	s.LastApply = sim.Time(u)
	if s.WindowBase, err = r.u64(); err != nil {
		return nil, err
	}
	for i := range s.Windows {
		if s.Windows[i], err = r.u64(); err != nil {
			return nil, err
		}
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxCodecList {
		return nil, fmt.Errorf("mirto: state dedup window %d exceeds bound", n)
	}
	for i := uint32(0); i < n; i++ {
		id, err := r.u64()
		if err != nil {
			return nil, err
		}
		s.Dedup = append(s.Dedup, id)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// StateDelta is the incremental checkpoint record: the applies made
// since the base full image (whose Count it names).
type StateDelta struct {
	Stage     string
	BaseCount uint64
	Entries   []JournalEntry
}

// EncodeDelta renders a delta record.
func EncodeDelta(d *StateDelta) []byte {
	b := make([]byte, 0, 32+24*len(d.Entries))
	b = append(b, stateMagicDelta...)
	b = append(b, stateCodecV1)
	b = appendString(b, d.Stage)
	b = appendU64(b, d.BaseCount)
	b = appendU32(b, uint32(len(d.Entries)))
	for _, e := range d.Entries {
		b = appendU64(b, e.ReqID)
		b = appendU64(b, uint64(e.Items))
		b = appendU64(b, uint64(e.At))
	}
	return appendCRC(b)
}

// DecodeDelta parses a delta record with the same rejection rules as
// DecodeState.
func DecodeDelta(data []byte) (*StateDelta, error) {
	r, err := openRecord(data, stateMagicDelta)
	if err != nil {
		return nil, err
	}
	d := &StateDelta{}
	if d.Stage, err = r.str(); err != nil {
		return nil, err
	}
	if d.BaseCount, err = r.u64(); err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxCodecList {
		return nil, fmt.Errorf("mirto: delta entry count %d exceeds bound", n)
	}
	for i := uint32(0); i < n; i++ {
		var e JournalEntry
		var u uint64
		if e.ReqID, err = r.u64(); err != nil {
			return nil, err
		}
		if u, err = r.u64(); err != nil {
			return nil, err
		}
		e.Items = int64(u)
		if u, err = r.u64(); err != nil {
			return nil, err
		}
		e.At = sim.Time(u)
		d.Entries = append(d.Entries, e)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return d, nil
}

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.BigEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendCRC(b []byte) []byte {
	return appendU32(b, crc32.ChecksumIEEE(b))
}

// recReader walks an encoded record after its envelope has been checked.
type recReader struct {
	b   []byte
	pos int
}

// openRecord validates magic, version, and trailing CRC, returning a
// reader positioned after the version byte and bounded before the CRC.
func openRecord(data []byte, magic string) (*recReader, error) {
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("mirto: state record truncated (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("mirto: bad state record magic %q", data[:len(magic)])
	}
	if v := data[len(magic)]; v != stateCodecV1 {
		return nil, fmt.Errorf("mirto: unsupported state codec version %d", v)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("mirto: state record checksum mismatch")
	}
	return &recReader{b: body, pos: len(magic) + 1}, nil
}

func (r *recReader) u64() (uint64, error) {
	if r.pos+8 > len(r.b) {
		return 0, fmt.Errorf("mirto: state record truncated at offset %d", r.pos)
	}
	v := binary.BigEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *recReader) u32() (uint32, error) {
	if r.pos+4 > len(r.b) {
		return 0, fmt.Errorf("mirto: state record truncated at offset %d", r.pos)
	}
	v := binary.BigEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *recReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > maxCodecList || r.pos+int(n) > len(r.b) {
		return "", fmt.Errorf("mirto: state record string length %d out of bounds", n)
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// done rejects trailing garbage between the last field and the CRC.
func (r *recReader) done() error {
	if r.pos != len(r.b) {
		return fmt.Errorf("mirto: state record has %d trailing bytes", len(r.b)-r.pos)
	}
	return nil
}

// stateCell is one stage's live state plus its recovery bookkeeping.
type stateCell struct {
	app, stage string
	owner      string // device currently holding the state in memory
	state      StageState
	// lost marks the in-memory copy destroyed (owner crashed); applies are
	// journaled but not folded until a restore (or, without checkpointing,
	// a fresh zero state re-owned by the next placement) completes.
	lost      bool
	lostAt    sim.Time
	lostCount uint64
	restoring bool

	// journal is the bounded ring of recent applies (control-plane side:
	// it survives device crashes the way the ingress' request log would).
	journal []JournalEntry
	// journalDropped counts entries evicted past the bound; total appended
	// is len(journal)+journalDropped.
	journalDropped uint64

	// token is the highest fencing token an apply has carried (fence.go);
	// a fenced apply carrying a lower token is rejected and parked in the
	// fenced journal instead — the unshipped suffix a partition-heal
	// reconciliation discards.
	token         uint64
	fenced        []JournalEntry
	fencedDropped uint64
}

// StateStoreStats are the apply-side counters of the state subsystem.
type StateStoreStats struct {
	// Applied counts state applies; DedupHits retried requests whose
	// re-execution was absorbed by the dedup window (the exactly-once
	// guard); LostApplies applies made while the cell was lost (journaled,
	// folded only by restore or lost without checkpointing).
	Applied, DedupHits, LostApplies uint64
	// Invalidations counts device-loss events; CleanMigrations moves of a
	// live cell to a new placement (no state loss).
	Invalidations, CleanMigrations uint64
	// LiveMigrations counts completed pre-copy/catch-up/flip ownership
	// hand-offs (planned drains) — zero-loss by construction, counted
	// separately from the passive CleanMigrations follow-the-placement
	// moves.
	LiveMigrations uint64
	// RPOItems is the total number of applied state items (requests) that
	// recovery could not bring back — the recovery-point objective, 0 when
	// every committed apply survived.
	RPOItems uint64
	// RTOSamples are per-incident crash→state-restored latencies.
	RTOSamples []sim.Time
	// JournalReplayed counts journal entries folded in during restores;
	// JournalEvicted entries lost past the journal bound.
	JournalReplayed, JournalEvicted uint64
	// FencedWrites counts applies rejected for carrying a stale fencing
	// token — a partitioned zombie owner's writes, never folded in.
	FencedWrites uint64
}

// StateStore holds every stateful stage's cell for one runtime. It is
// safe for concurrent use; all mutation happens on the simulation
// goroutine in practice, but tests hit it with -race.
type StateStore struct {
	mu    sync.Mutex
	cells map[string]*stateCell // key app + "/" + stage
	bound int
	// hints records each stateful stage's declared state-size hint in MB
	// (the TOSCA "stateMB" property) — it sizes checkpoint transfers.
	hints map[string]float64

	stats StateStoreStats

	// onLost, when set (by the Checkpointer), observes invalidations so a
	// restore can be scheduled.
	onLost func(app, stage string)

	// crashAt lets the fault injector stamp the true crash instant of a
	// device, so RTO measures crash→restored rather than detect→restored.
	crashAt map[string]sim.Time

	// failed, when set (by the Runtime), reports whether a device is
	// currently down. An apply arriving from a new placement while the
	// previous owner is dead must NOT migrate the state — the old owner's
	// RAM is gone — even if the failure detector has not confirmed the
	// crash yet.
	failed func(device string) bool

	// fencing enables stale-token rejection on ApplyFenced; off (the
	// default) every token is accepted, so pre-fencing callers and the
	// -fencing=false control arm behave exactly as before.
	fencing bool
}

// NewStateStore returns an empty store; bound sizes both the dedup
// window and the apply journal (0 = DefaultStateBound).
func NewStateStore(bound int) *StateStore {
	if bound <= 0 {
		bound = DefaultStateBound
	}
	return &StateStore{
		cells:   map[string]*stateCell{},
		bound:   bound,
		hints:   map[string]float64{},
		crashAt: map[string]sim.Time{},
	}
}

func cellKey(app, stage string) string { return app + "/" + stage }

// Bound returns the dedup/journal bound.
func (ss *StateStore) Bound() int { return ss.bound }

// SetFencing toggles stale-token rejection on ApplyFenced. Off (the
// default), tokens are recorded but never rejected — existing callers
// and the control arm of the split-brain experiment are unchanged.
func (ss *StateStore) SetFencing(on bool) {
	ss.mu.Lock()
	ss.fencing = on
	ss.mu.Unlock()
}

// RaiseToken records the ledger's current fencing token for a cell,
// creating the cell (owned by device) if it has no state yet. The
// runtime calls this at plan registration, so the fence rises the
// moment ownership changes — before the new owner's first apply lands.
func (ss *StateStore) RaiseToken(app, stage, device string, token uint64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil {
		c = &stateCell{app: app, stage: stage, owner: device, state: StageState{Stage: stage}}
		ss.cells[cellKey(app, stage)] = c
	}
	if token > c.token {
		c.token = token
	}
}

// CellToken returns the highest fencing token a cell has observed.
func (ss *StateStore) CellToken(app, stage string) uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if c := ss.cells[cellKey(app, stage)]; c != nil {
		return c.token
	}
	return 0
}

// FencedEntries reports how many stale-token applies a cell has parked
// in its fenced journal (including any evicted past the bound).
func (ss *StateStore) FencedEntries(app, stage string) int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if c := ss.cells[cellKey(app, stage)]; c != nil {
		return len(c.fenced) + int(c.fencedDropped)
	}
	return 0
}

// Apply folds one served request into a stage's state cell, creating the
// cell on first touch. It is idempotent per request ID within the dedup
// window: a retried request that already executed the stage reports a
// dedup hit and changes nothing. Returns whether the apply took effect.
func (ss *StateStore) Apply(app, stage, device string, reqID uint64, items int64, at sim.Time) bool {
	return ss.ApplyFenced(app, stage, device, reqID, items, at, ^uint64(0))
}

// ApplyFenced is Apply with the writer's fencing token. With fencing
// enabled, a token below the cell's highest observed one identifies a
// stale writer — a partitioned zombie owner or a replayed pre-partition
// suffix: the apply is counted, parked in the fenced journal (for the
// heal-time reconciliation to discard), and never folded into state.
// Un-fenced callers pass MaxUint64 via Apply and are never rejected.
func (ss *StateStore) ApplyFenced(app, stage, device string, reqID uint64, items int64, at sim.Time, token uint64) bool {
	// newlyLost collects cells an inline owner-death invalidation marks
	// lost; their onLost callbacks fire after the lock is released (defers
	// run LIFO, so this one runs after the unlock below).
	var newlyLost []*stateCell
	defer func() {
		if ss.onLost != nil {
			for _, lc := range newlyLost {
				ss.onLost(lc.app, lc.stage)
			}
		}
	}()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil {
		c = &stateCell{app: app, stage: stage, owner: device, state: StageState{Stage: stage}}
		ss.cells[cellKey(app, stage)] = c
	}
	// Fencing gate: the token comparison runs before dedup so a stale
	// writer can neither mutate state nor pollute the dedup window or
	// journal. MaxUint64 is the un-fenced sentinel (plain Apply): it is
	// never rejected and never raises the cell's watermark.
	if ss.fencing && token != ^uint64(0) {
		if token < c.token {
			ss.stats.FencedWrites++
			c.fenced = append(c.fenced, JournalEntry{ReqID: reqID, Items: items, At: at})
			if len(c.fenced) > ss.bound {
				drop := len(c.fenced) - ss.bound
				c.fenced = c.fenced[drop:]
				c.fencedDropped += uint64(drop)
			}
			return false
		}
		if token > c.token {
			c.token = token
		}
	}
	if c.state.seen(reqID) || journalHas(c.journal, reqID) {
		ss.stats.DedupHits++
		return false
	}
	c.journal = append(c.journal, JournalEntry{ReqID: reqID, Items: items, At: at})
	if len(c.journal) > ss.bound {
		drop := len(c.journal) - ss.bound
		c.journal = c.journal[drop:]
		c.journalDropped += uint64(drop)
		ss.stats.JournalEvicted += uint64(drop)
	}
	if !c.lost && c.owner != device && c.owner != "" && ss.ownerDeadLocked(c.owner) {
		// The stage moved to a new placement because its previous owner
		// died: the state cannot migrate out of dead RAM, whatever the
		// failure detector has concluded so far. Invalidate now — the
		// replan is often faster than suspicion confirmation.
		newlyLost = append(newlyLost, ss.invalidateLocked(c.owner, at)...)
	}
	if c.lost {
		// The in-memory copy is gone; the apply is journaled and will be
		// folded by the restore replay (or lost without checkpointing).
		ss.stats.LostApplies++
		return true
	}
	if c.owner != device {
		// The stage moved under a live cell (clean replan); the state
		// follows the placement, like a process migration.
		c.owner = device
		ss.stats.CleanMigrations++
	}
	c.state.apply(reqID, items, at, ss.bound)
	ss.stats.Applied++
	return true
}

// journalHas reports whether the journal already carries reqID — the
// dedup backstop for applies journaled while a cell is lost (they are
// not yet in the state's own dedup window).
func journalHas(j []JournalEntry, reqID uint64) bool {
	for i := len(j) - 1; i >= 0; i-- {
		if j[i].ReqID == reqID {
			return true
		}
	}
	return false
}

// Reconcile is the partition-heal cleanup for a fenced owner: the
// fenced journal suffix — writes the zombie attempted while stale — is
// discarded deterministically (it was never folded in, so state is
// untouched), and the resync cost of re-pulling the authoritative image
// (encoded state plus the declared stateMB hint) is reported. Returns
// the discarded entry count and the resync bytes.
func (ss *StateStore) Reconcile(app, stage string) (discarded int, resyncBytes uint64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil {
		return 0, 0
	}
	discarded = len(c.fenced) + int(c.fencedDropped)
	c.fenced, c.fencedDropped = nil, 0
	img := c.state
	resyncBytes = uint64(len(EncodeState(&img))) + uint64(ss.hints[cellKey(app, stage)]*1e6)
	return discarded, resyncBytes
}

// NoteCrash stamps the true crash time of a device (fault injectors call
// this) so RTO samples measure from the crash, not from detection.
func (ss *StateStore) NoteCrash(device string, at sim.Time) {
	ss.mu.Lock()
	ss.crashAt[device] = at
	ss.mu.Unlock()
}

// Invalidate destroys the in-memory state of every cell owned by device
// — the RAM died with it. The journal survives (it is control-plane
// state), and a wired Checkpointer will schedule restores; without one,
// the applies the cell held are permanently lost and counted as RPO.
func (ss *StateStore) Invalidate(device string, now sim.Time) {
	ss.mu.Lock()
	lost := ss.invalidateLocked(device, now)
	onLost := ss.onLost
	ss.mu.Unlock()
	if onLost != nil {
		for _, c := range lost {
			onLost(c.app, c.stage)
		}
	}
}

// invalidateLocked marks every live cell owned by device lost and returns
// them; the caller fires onLost after releasing ss.mu (the callback —
// typically the Checkpointer's restore scheduler — re-enters the store).
func (ss *StateStore) invalidateLocked(device string, now sim.Time) []*stateCell {
	var lost []*stateCell
	for _, c := range ss.sortedCellsLocked() {
		if c.owner != device || c.lost {
			continue
		}
		c.lost = true
		c.lostAt = now
		if at, ok := ss.crashAt[device]; ok && at < now {
			c.lostAt = at
		}
		c.lostCount = c.state.Count
		c.state = StageState{Stage: c.stage}
		c.restoring = false
		ss.stats.Invalidations++
		lost = append(lost, c)
	}
	delete(ss.crashAt, device)
	return lost
}

// ownerDeadLocked reports whether a device is known dead: either a fault
// injector stamped its crash (NoteCrash) or the runtime's liveness probe
// says it is down.
func (ss *StateStore) ownerDeadLocked(device string) bool {
	if _, ok := ss.crashAt[device]; ok {
		return true
	}
	return ss.failed != nil && ss.failed(device)
}

// sortedCellsLocked returns the cells in deterministic key order.
func (ss *StateStore) sortedCellsLocked() []*stateCell {
	keys := make([]string, 0, len(ss.cells))
	for k := range ss.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*stateCell, len(keys))
	for i, k := range keys {
		out[i] = ss.cells[k]
	}
	return out
}

// CompleteRestore installs a recovered state image on a lost cell: the
// decoded checkpoint (nil without one), the extra dedup IDs its delta
// carried, then a replay of every journal entry not already covered.
// It closes the incident's RPO/RTO accounting and re-owns the cell.
func (ss *StateStore) CompleteRestore(app, stage, device string, img *StageState, extraDedup map[uint64]bool, now sim.Time) {
	ss.mu.Lock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil || !c.lost {
		ss.mu.Unlock()
		return
	}
	st := StageState{Stage: stage}
	covered := map[uint64]bool{}
	if img != nil {
		st = *img
		st.Stage = stage
		st.Dedup = append([]uint64(nil), img.Dedup...)
		for _, id := range st.Dedup {
			covered[id] = true
		}
	}
	for id := range extraDedup {
		covered[id] = true
	}
	replayed, recoveredToLoss := uint64(0), st.Count
	for _, e := range c.journal {
		if covered[e.ReqID] || st.seen(e.ReqID) {
			continue
		}
		st.apply(e.ReqID, e.Items, e.At, ss.bound)
		replayed++
		if e.At <= c.lostAt {
			recoveredToLoss++
		}
	}
	c.state = st
	c.owner = device
	c.lost = false
	c.restoring = false
	ss.stats.JournalReplayed += replayed
	if c.lostCount > recoveredToLoss {
		ss.stats.RPOItems += c.lostCount - recoveredToLoss
	}
	ss.stats.RTOSamples = append(ss.stats.RTOSamples, now-c.lostAt)
	ss.mu.Unlock()
}

// AbandonLost re-owns a lost cell with zero state — the no-checkpoint
// path: the next placement starts fresh and everything the cell held is
// recorded as unrecoverable RPO loss.
func (ss *StateStore) AbandonLost(app, stage, device string, now sim.Time) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil || !c.lost {
		return
	}
	c.state = StageState{Stage: stage}
	c.owner = device
	c.lost = false
	c.restoring = false
	ss.stats.RPOItems += c.lostCount
}

// State returns a copy of a stage's live state and whether the cell is
// currently lost.
func (ss *StateStore) State(app, stage string) (StageState, bool, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil {
		return StageState{}, false, false
	}
	st := c.state
	st.Dedup = append([]uint64(nil), c.state.Dedup...)
	return st, c.lost, true
}

// Fingerprints returns the canonical logical-state bytes of every cell,
// keyed app/stage — the artifact the chaos divergence check compares
// against a fault-free same-seed run.
func (ss *StateStore) Fingerprints() map[string][]byte {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make(map[string][]byte, len(ss.cells))
	for k, c := range ss.cells {
		out[k] = c.state.Fingerprint()
	}
	return out
}

// Stats returns a copy of the apply-side counters.
func (ss *StateStore) Stats() StateStoreStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s := ss.stats
	s.RTOSamples = append([]sim.Time(nil), ss.stats.RTOSamples...)
	return s
}

// Cells returns the app/stage keys of all cells, sorted.
func (ss *StateStore) Cells() []string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	keys := make([]string, 0, len(ss.cells))
	for k := range ss.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SplitCellKey splits a Cells()/LostCells() key back into app and stage.
func SplitCellKey(key string) (app, stage string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}

// LostCells returns the keys of cells whose in-memory state is currently
// lost, sorted.
func (ss *StateStore) LostCells() []string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var keys []string
	for k, c := range ss.cells {
		if c.lost {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// SetHint records a stage's declared state-size hint (MB).
func (ss *StateStore) SetHint(app, stage string, mb float64) {
	ss.mu.Lock()
	ss.hints[cellKey(app, stage)] = mb
	ss.mu.Unlock()
}

// Hint returns a stage's state-size hint in MB (0 when undeclared).
func (ss *StateStore) Hint(app, stage string) float64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.hints[cellKey(app, stage)]
}

// SetOnLost registers the invalidation observer (the Checkpointer's
// restore scheduler). Wire before serving.
func (ss *StateStore) SetOnLost(fn func(app, stage string)) {
	ss.mu.Lock()
	ss.onLost = fn
	ss.mu.Unlock()
}

// SetFailedFn registers the device-liveness probe (the Runtime wires it
// to its device table) used to catch state applies arriving from a new
// placement while the previous owner is dead but not yet confirmed.
func (ss *StateStore) SetFailedFn(fn func(device string) bool) {
	ss.mu.Lock()
	ss.failed = fn
	ss.mu.Unlock()
}

// CellInfo reports a cell's owner and recovery flags.
func (ss *StateStore) CellInfo(app, stage string) (owner string, lost, restoring, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil {
		return "", false, false, false
	}
	return c.owner, c.lost, c.restoring, true
}

// MarkRestoring flags a lost cell as having a restore in flight so the
// scheduler does not start a second one; it reports whether the flag was
// taken (false when the cell is not lost or already restoring).
func (ss *StateStore) MarkRestoring(app, stage string) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil || !c.lost || c.restoring {
		return false
	}
	c.restoring = true
	return true
}

// ClearRestoring drops the in-flight flag after a failed restore attempt
// so the next tick can retry.
func (ss *StateStore) ClearRestoring(app, stage string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if c := ss.cells[cellKey(app, stage)]; c != nil {
		c.restoring = false
	}
}

// JournalPos returns the cell's current total journal position (entries
// ever appended, evicted ones included) — the pre-copy baseline of a
// live migration.
func (ss *StateStore) JournalPos(app, stage string) uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil {
		return 0
	}
	return c.journalDropped + uint64(len(c.journal))
}

// CompleteMigration finalizes a live migration's ownership flip: the
// cell's owner becomes newOwner without touching the state itself (the
// store is authoritative and the pre-copy/catch-up already proved the
// image converged). It refuses cells that are missing, lost, or
// restoring — a crash mid-migration falls back to checkpoint restore
// and the flip must not fight it.
func (ss *StateStore) CompleteMigration(app, stage, newOwner string) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil || c.lost || c.restoring {
		return false
	}
	if c.owner != newOwner {
		c.owner = newOwner
	}
	ss.stats.LiveMigrations++
	return true
}

// JournalSince returns a copy of the journal entries at total position ≥
// pos (the total position counts every entry ever appended, evicted ones
// included), the new total position, and whether the journal still
// covers pos — false means entries between pos and the journal's oldest
// retained entry were evicted, so a delta from pos would have holes.
func (ss *StateStore) JournalSince(app, stage string, pos uint64) ([]JournalEntry, uint64, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	c := ss.cells[cellKey(app, stage)]
	if c == nil {
		return nil, 0, true
	}
	total := c.journalDropped + uint64(len(c.journal))
	if pos < c.journalDropped {
		return nil, total, false
	}
	ents := append([]JournalEntry(nil), c.journal[pos-c.journalDropped:]...)
	return ents, total, true
}
