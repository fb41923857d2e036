// Package kb implements the MYRTUS shared ontological Knowledge Base: a
// strongly-consistent, distributed, revisioned key-value store in the role
// the paper assigns to etcd (§III, footnote 3). It provides:
//
//   - an MVCC store with monotonically increasing revisions, historical
//     reads, prefix ranges, and compaction (store.go);
//   - watches over key prefixes (watch.go);
//   - leases for liveness-bound keys such as Resource Registry heartbeats
//     (lease.go);
//   - Raft consensus for replication across continuum layers (raft.go,
//     cluster.go);
//   - a typed Resource Registry / Status API used by MIRTO agents
//     (registry.go).
//
// The logical view is a single KB; the implementation view is a replica
// set distributed over the layers, exactly as the paper prescribes.
package kb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"sync"
)

// KV is one key-value pair at a revision.
type KV struct {
	Key            string
	Value          []byte
	CreateRevision int64
	ModRevision    int64
	Version        int64 // number of writes to this key since creation
	Lease          int64 // owning lease ID, 0 if none
}

type keyVersion struct {
	rev       int64
	value     []byte
	tombstone bool
	createRev int64
	version   int64
	lease     int64
}

// Store is a single-replica MVCC store. It is safe for concurrent use.
// The zero value is not ready; use NewStore.
type Store struct {
	mu        sync.RWMutex
	rev       int64
	compacted int64
	keys      map[string][]keyVersion
	watchers  *watchHub
}

// NewStore returns an empty store at revision 0.
func NewStore() *Store {
	return &Store{
		keys:     make(map[string][]keyVersion),
		watchers: newWatchHub(),
	}
}

// Revision returns the current store revision.
func (s *Store) Revision() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rev
}

// Put writes value under key and returns the new revision.
func (s *Store) Put(key string, value []byte) int64 {
	return s.PutLease(key, value, 0)
}

// PutLease writes value under key, attached to the given lease ID
// (0 for none), and returns the new revision.
func (s *Store) PutLease(key string, value []byte, lease int64) int64 {
	s.mu.Lock()
	s.rev++
	rev := s.rev
	hist := s.keys[key]
	createRev := rev
	version := int64(1)
	if n := len(hist); n > 0 && !hist[n-1].tombstone {
		createRev = hist[n-1].createRev
		version = hist[n-1].version + 1
	}
	v := make([]byte, len(value))
	copy(v, value)
	s.keys[key] = append(hist, keyVersion{rev: rev, value: v, createRev: createRev, version: version, lease: lease})
	ev := Event{Type: EventPut, KV: KV{Key: key, Value: v, CreateRevision: createRev, ModRevision: rev, Version: version, Lease: lease}}
	// Notify while holding the store lock so WatchFrom can atomically
	// replay history and attach without missing or duplicating events.
	s.watchers.notify(ev)
	s.mu.Unlock()
	return rev
}

// Delete removes key. It returns the new revision and whether the key
// existed.
func (s *Store) Delete(key string) (int64, bool) {
	s.mu.Lock()
	hist := s.keys[key]
	n := len(hist)
	if n == 0 || hist[n-1].tombstone {
		rev := s.rev
		s.mu.Unlock()
		return rev, false
	}
	s.rev++
	rev := s.rev
	s.keys[key] = append(hist, keyVersion{rev: rev, tombstone: true})
	ev := Event{Type: EventDelete, KV: KV{Key: key, ModRevision: rev}}
	s.watchers.notify(ev)
	s.mu.Unlock()
	return rev, true
}

// CAS writes value only if the key's current ModRevision equals
// expectRev (0 = key must not exist). It returns the new revision and
// whether the swap happened — the primitive agents use to claim
// leadership of a shared decision without a separate lock service.
func (s *Store) CAS(key string, expectRev int64, value []byte) (int64, bool) {
	s.mu.Lock()
	cur, ok := s.getLocked(key, s.rev)
	switch {
	case !ok && expectRev != 0:
		rev := s.rev
		s.mu.Unlock()
		return rev, false
	case ok && cur.ModRevision != expectRev:
		rev := s.rev
		s.mu.Unlock()
		return rev, false
	}
	s.rev++
	rev := s.rev
	hist := s.keys[key]
	createRev := rev
	version := int64(1)
	if n := len(hist); n > 0 && !hist[n-1].tombstone {
		createRev = hist[n-1].createRev
		version = hist[n-1].version + 1
	}
	v := make([]byte, len(value))
	copy(v, value)
	s.keys[key] = append(hist, keyVersion{rev: rev, value: v, createRev: createRev, version: version})
	ev := Event{Type: EventPut, KV: KV{Key: key, Value: v, CreateRevision: createRev, ModRevision: rev, Version: version}}
	s.watchers.notify(ev)
	s.mu.Unlock()
	return rev, true
}

// Get returns the latest value of key.
func (s *Store) Get(key string) (KV, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getLocked(key, s.rev)
}

// GetAt returns the value of key as of revision rev. It reports an error
// when rev has been compacted away.
func (s *Store) GetAt(key string, rev int64) (KV, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rev < s.compacted {
		return KV{}, false, fmt.Errorf("kb: revision %d compacted (compact revision %d)", rev, s.compacted)
	}
	kv, ok := s.getLocked(key, rev)
	return kv, ok, nil
}

func (s *Store) getLocked(key string, rev int64) (KV, bool) {
	hist := s.keys[key]
	// Latest version with version.rev ≤ rev.
	idx := sort.Search(len(hist), func(i int) bool { return hist[i].rev > rev }) - 1
	if idx < 0 {
		return KV{}, false
	}
	v := hist[idx]
	if v.tombstone {
		return KV{}, false
	}
	val := make([]byte, len(v.value))
	copy(val, v.value)
	return KV{Key: key, Value: val, CreateRevision: v.createRev, ModRevision: v.rev, Version: v.version, Lease: v.lease}, true
}

// Range returns all live keys with the given prefix, sorted by key.
func (s *Store) Range(prefix string) []KV {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []KV
	for key := range s.keys {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		if kv, ok := s.getLocked(key, s.rev); ok {
			out = append(out, kv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Count returns the number of live keys under prefix.
func (s *Store) Count(prefix string) int { return len(s.Range(prefix)) }

// Compact discards history older than rev, keeping the latest version of
// each key at or before rev so current reads are unaffected.
func (s *Store) Compact(rev int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rev > s.rev {
		return fmt.Errorf("kb: compact revision %d beyond current %d", rev, s.rev)
	}
	if rev < s.compacted {
		return fmt.Errorf("kb: compact revision %d already compacted (at %d)", rev, s.compacted)
	}
	for key, hist := range s.keys {
		// Keep the last version ≤ rev plus everything after rev.
		idx := sort.Search(len(hist), func(i int) bool { return hist[i].rev > rev }) - 1
		if idx <= 0 {
			continue
		}
		kept := hist[idx:]
		if kept[0].tombstone && len(kept) == 1 {
			delete(s.keys, key)
			continue
		}
		s.keys[key] = append([]keyVersion(nil), kept...)
	}
	s.compacted = rev
	return nil
}

// CompactedRevision returns the compaction floor.
func (s *Store) CompactedRevision() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compacted
}

// imageMagic opens a Serialize image and doubles as its format version.
const imageMagic = 0xB1

// Serialize renders the store's live state (latest version of every key
// plus the revision counter) for snapshot transfer. History is not
// carried — a snapshot is a compaction by definition.
//
// Layout: magic byte; varint revision and compaction floor; uvarint key
// count; per key in sorted order, uvarint-length-prefixed key and value,
// then varint create revision, mod revision, version and lease; a
// big-endian CRC-32 of everything before it. Sorted keys make the image
// byte-deterministic, so replicas at the same applied index agree.
func (s *Store) Serialize() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.keys))
	size := 1 + varintLen(s.rev)*2 + 4
	for key, hist := range s.keys {
		v := hist[len(hist)-1]
		if v.tombstone {
			continue
		}
		keys = append(keys, key)
		size += uvarintLen(uint64(len(key))) + len(key) + uvarintLen(uint64(len(v.value))) + len(v.value) +
			varintLen(v.createRev) + varintLen(v.rev) + varintLen(v.version) + varintLen(v.lease)
	}
	slices.Sort(keys)
	size += uvarintLen(uint64(len(keys)))
	b := make([]byte, 0, size)
	b = append(b, imageMagic)
	b = binary.AppendVarint(b, s.rev)
	b = binary.AppendVarint(b, s.rev) // compaction floor
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, key := range keys {
		hist := s.keys[key]
		v := hist[len(hist)-1]
		b = appendBytes(b, key)
		b = appendBytes(b, v.value)
		b = binary.AppendVarint(b, v.createRev)
		b = binary.AppendVarint(b, v.rev)
		b = binary.AppendVarint(b, v.version)
		b = binary.AppendVarint(b, v.lease)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Restore replaces the store's contents with a Serialize image,
// preserving per-key revisions and the revision counter so replicas stay
// aligned. A bad magic byte, checksum, length or key order is an error
// and leaves the store untouched.
func (s *Store) Restore(data []byte) error {
	if len(data) < 1+4 || data[0] != imageMagic {
		return fmt.Errorf("kb: corrupt store snapshot: not a store image")
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		return fmt.Errorf("kb: corrupt store snapshot: checksum mismatch")
	}
	r := wireReader{b: body[1:]}
	rev, compacted := r.varint(), r.varint()
	n := r.uvarint()
	if n > uint64(len(r.b)) { // every key takes at least one byte
		return fmt.Errorf("kb: corrupt store snapshot: %d keys in %d bytes", n, len(r.b))
	}
	keys := make(map[string][]keyVersion, n)
	prev := ""
	for i := uint64(0); i < n && r.err == nil; i++ {
		key := string(r.bytes())
		value := r.bytes()
		kv := keyVersion{createRev: r.varint(), rev: r.varint(), version: r.varint(), lease: r.varint()}
		if i > 0 && key <= prev {
			return fmt.Errorf("kb: corrupt store snapshot: key %q out of order", key)
		}
		prev = key
		kv.value = append([]byte(nil), value...)
		keys[key] = []keyVersion{kv}
	}
	if err := r.done(); err != nil {
		return fmt.Errorf("kb: corrupt store snapshot: %w", err)
	}
	s.mu.Lock()
	s.keys = keys
	s.rev = rev
	s.compacted = compacted
	s.mu.Unlock()
	return nil
}

// Keys returns all live keys (sorted), mainly for diagnostics.
func (s *Store) Keys() []string {
	kvs := s.Range("")
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.Key
	}
	return out
}
