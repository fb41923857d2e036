// Package network models the MYRTUS connectivity substrate (EU-CEI
// "Network" building block): a continuum-wide topology of links with
// latency, bandwidth, and loss; shortest-path routing; FIFO link queuing
// (congestion); network slices reserving bandwidth shares; and a
// lightweight pub/sub message fabric in the role of the MQTT/CoAP/HTTP
// protocols the paper lists for edge–gateway–FMDC communication.
//
// All timing runs on the discrete-event kernel in internal/sim, so
// end-to-end latency and congestion are measurable and reproducible.
package network

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"myrtus/internal/sim"
)

// Link is a unidirectional connection between two named endpoints.
type Link struct {
	From, To  string
	Latency   sim.Time // propagation delay
	Bandwidth float64  // bytes per virtual second
	LossP     float64  // i.i.d. packet loss probability

	// nextFree[sliceID] is when the slice's share of the link is next
	// available; sliceID "" is best-effort.
	nextFree map[string]sim.Time
	// queueTotal accumulates queuing delay for congestion metrics.
	queueTotal sim.Time
	transfers  int64
}

// Utilization metrics for one link.
type LinkStats struct {
	From, To      string
	Transfers     int64
	MeanQueueWait sim.Time
}

// Topology is the graph of endpoints and links plus slice definitions.
// It is safe for concurrent use.
//
// Routing is served from an all-pairs latency/next-hop table built once
// per topology epoch (see routetable.go): every graph edit bumps epoch,
// and the next routing call rebuilds the table outside the lock. Reads
// are two atomic loads — Route and RouteLatency never hold t.mu while
// computing shortest paths, so concurrent senders never serialize on
// Dijkstra.
type Topology struct {
	mu     sync.Mutex
	nodes  map[string]bool
	links  map[string]map[string]*Link
	slices map[string]*Slice
	rng    *sim.RNG

	// epoch counts graph edits; table caches the all-pairs routes for
	// the epoch it was built at. buildMu serializes rebuilds.
	epoch   atomic.Uint64
	table   atomic.Pointer[routeTable]
	buildMu sync.Mutex
}

// Slice reserves a bandwidth share on a set of links for a traffic class
// (EU-CEI network slicing). Share is the fraction of each member link's
// bandwidth reserved exclusively for the slice.
type Slice struct {
	Name  string
	Share float64
	// Links: "from->to" members; empty means every link.
	Links map[string]bool
}

// NewTopology returns an empty topology.
func NewTopology(seed uint64) *Topology {
	return &Topology{
		nodes:  make(map[string]bool),
		links:  make(map[string]map[string]*Link),
		slices: make(map[string]*Slice),
		rng:    sim.NewRNG(seed).Fork("network"),
	}
}

// AddNode registers an endpoint.
func (t *Topology) AddNode(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.nodes[name] {
		t.nodes[name] = true
		t.epoch.Add(1)
	}
}

// Nodes returns all endpoint names, sorted.
func (t *Topology) Nodes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.nodes))
	for n := range t.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddLink creates a unidirectional link. Both endpoints are registered
// implicitly.
func (t *Topology) AddLink(from, to string, latency sim.Time, bandwidth float64, lossP float64) error {
	if from == to {
		return fmt.Errorf("network: self-link on %q", from)
	}
	if bandwidth <= 0 {
		return fmt.Errorf("network: non-positive bandwidth on %s->%s", from, to)
	}
	if lossP < 0 || lossP >= 1 {
		return fmt.Errorf("network: loss probability %v out of [0,1)", lossP)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[from] = true
	t.nodes[to] = true
	if t.links[from] == nil {
		t.links[from] = make(map[string]*Link)
	}
	t.links[from][to] = &Link{
		From: from, To: to,
		Latency: latency, Bandwidth: bandwidth, LossP: lossP,
		nextFree: make(map[string]sim.Time),
	}
	t.epoch.Add(1)
	return nil
}

// AddDuplex creates links in both directions with identical parameters.
func (t *Topology) AddDuplex(a, b string, latency sim.Time, bandwidth float64, lossP float64) error {
	if err := t.AddLink(a, b, latency, bandwidth, lossP); err != nil {
		return err
	}
	return t.AddLink(b, a, latency, bandwidth, lossP)
}

// RemoveLink severs from→to (e.g. connectivity failure injection).
func (t *Topology) RemoveLink(from, to string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.links[from]; m != nil {
		if _, ok := m[to]; ok {
			delete(m, to)
			t.epoch.Add(1)
		}
	}
}

// SetLinkQuality rewrites the latency, bandwidth, and loss of an
// existing link (degradation injection / repair). Validation mirrors
// AddLink; the epoch bump invalidates cached routes so the next routing
// read sees the new weights.
func (t *Topology) SetLinkQuality(from, to string, latency sim.Time, bandwidth, lossP float64) error {
	if from == to {
		return fmt.Errorf("network: self-link on %q", from)
	}
	if bandwidth <= 0 {
		return fmt.Errorf("network: non-positive bandwidth on %s->%s", from, to)
	}
	if lossP < 0 || lossP >= 1 {
		return fmt.Errorf("network: loss probability %v out of [0,1)", lossP)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.links[from][to]
	if !ok {
		return fmt.Errorf("network: no link %s->%s", from, to)
	}
	l.Latency, l.Bandwidth, l.LossP = latency, bandwidth, lossP
	t.epoch.Add(1)
	return nil
}

// AdjacentLinks returns parameter copies of every link touching node in
// either direction, sorted by (From, To) — the set a partition event
// must cut and a heal event later restore.
func (t *Topology) AdjacentLinks(node string) []Link {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Link
	for _, m := range t.links {
		for _, l := range m {
			if l.From == node || l.To == node {
				out = append(out, Link{
					From: l.From, To: l.To,
					Latency: l.Latency, Bandwidth: l.Bandwidth, LossP: l.LossP,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Link returns the link from→to.
func (t *Topology) Link(from, to string) (*Link, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.links[from][to]
	return l, ok
}

// DefineSlice reserves share of bandwidth on the listed links (empty list
// means all links) for the named traffic class. Total reservations on any
// link must stay below 1.
func (t *Topology) DefineSlice(name string, share float64, links ...string) error {
	if share <= 0 || share >= 1 {
		return fmt.Errorf("network: slice share %v out of (0,1)", share)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	member := make(map[string]bool, len(links))
	for _, l := range links {
		member[l] = true
	}
	// Validate cumulative reservation per link.
	check := func(linkKey string) error {
		total := share
		for _, s := range t.slices {
			if len(s.Links) == 0 || s.Links[linkKey] {
				total += s.Share
			}
		}
		if total >= 1 {
			return fmt.Errorf("network: cumulative slice reservation %.2f ≥ 1 on %s", total, linkKey)
		}
		return nil
	}
	if len(member) == 0 {
		for from, m := range t.links {
			for to := range m {
				if err := check(from + "->" + to); err != nil {
					return err
				}
			}
		}
	} else {
		for l := range member {
			if err := check(l); err != nil {
				return err
			}
		}
	}
	t.slices[name] = &Slice{Name: name, Share: share, Links: member}
	return nil
}

// sliceShare returns the bandwidth fraction available to sliceID on link
// key: its reservation if sliced, otherwise whatever is unreserved.
func (t *Topology) sliceShare(linkKey, sliceID string) float64 {
	if sliceID != "" {
		if s, ok := t.slices[sliceID]; ok && (len(s.Links) == 0 || s.Links[linkKey]) {
			return s.Share
		}
	}
	reserved := 0.0
	for _, s := range t.slices {
		if len(s.Links) == 0 || s.Links[linkKey] {
			reserved += s.Share
		}
	}
	free := 1 - reserved
	if free < 0.01 {
		free = 0.01
	}
	return free
}

// Route returns the minimum-latency path from src to dst (inclusive of
// both). The path comes from the epoch-cached sharded route table: the
// first query from a source runs one single-source Dijkstra; later
// queries are lock-free and O(path length).
func (t *Topology) Route(src, dst string) ([]string, sim.Time, error) {
	tab := t.routes()
	i, ok := tab.idx[src]
	if !ok {
		return nil, 0, fmt.Errorf("network: unknown source %q", src)
	}
	j, ok := tab.idx[dst]
	if !ok {
		return nil, 0, fmt.Errorf("network: unknown destination %q", dst)
	}
	if i == j {
		return []string{src}, 0, nil
	}
	lat := tab.row(i).dist[j]
	if lat < 0 {
		return nil, 0, fmt.Errorf("network: no route %s -> %s", src, dst)
	}
	path := make([]string, 0, 4)
	path = append(path, src)
	for at := i; at != j; {
		at = int(tab.row(at).next[j])
		path = append(path, tab.names[at])
	}
	return path, lat, nil
}

// RouteLatency returns the minimum route latency src→dst from the
// epoch-cached table without materializing the path. ok is false when
// either endpoint is unknown or no route exists. This is the planner's
// hot read: in the steady state two atomic loads, two map lookups, and
// one array index into the source's row.
func (t *Topology) RouteLatency(src, dst string) (sim.Time, bool) {
	tab := t.routes()
	i, ok := tab.idx[src]
	if !ok {
		return 0, false
	}
	j, ok := tab.idx[dst]
	if !ok {
		return 0, false
	}
	lat := tab.row(i).dist[j]
	if lat < 0 {
		return 0, false
	}
	return lat, true
}

// RouteReader is a consistent snapshot of the sharded latency table for
// bulk queries by node index: resolve names once with NodeIndex, then
// read many latencies without repeating the map lookups. The snapshot
// stays valid (though possibly one epoch stale) regardless of concurrent
// topology edits. Latencies are served from per-source rows built on
// first use, so a reader that queries k sources costs k Dijkstras total,
// not one per pair and not one per node in the topology.
type RouteReader struct {
	tab *routeTable
}

// RouteReader returns a reader pinned to the current route table.
func (t *Topology) RouteReader() RouteReader {
	return RouteReader{tab: t.routes()}
}

// NodeIndex resolves a node name to its index in this snapshot.
func (r RouteReader) NodeIndex(name string) (int, bool) {
	i, ok := r.tab.idx[name]
	return i, ok
}

// LatencyAt returns the latency between two node indices.
func (r RouteReader) LatencyAt(from, to int) (sim.Time, bool) {
	lat := r.tab.row(from).dist[to]
	if lat < 0 {
		return 0, false
	}
	return lat, true
}

// AnchorSummary condenses a member set's connectivity to an anchor into
// a compact digest: the best and worst member→anchor latency plus the
// reachable count. This is the "capacity digest" shape hierarchical
// planning negotiates instead of node lists — O(members) reads against
// one shared reverse row, no all-pairs state.
type AnchorSummary struct {
	Best, Worst sim.Time
	Reachable   int
}

// AnchorSummary computes the member→anchor route summary for a shard's
// member set. Unknown members count as unreachable.
func (t *Topology) AnchorSummary(anchor string, members []string) (AnchorSummary, bool) {
	tab := t.routes()
	ai, ok := tab.idx[anchor]
	if !ok {
		return AnchorSummary{}, false
	}
	row := tab.toRow(ai)
	var s AnchorSummary
	for _, m := range members {
		mi, ok := tab.idx[m]
		if !ok {
			continue
		}
		lat := row.dist[mi]
		if lat < 0 {
			continue
		}
		if s.Reachable == 0 || lat < s.Best {
			s.Best = lat
		}
		if lat > s.Worst {
			s.Worst = lat
		}
		s.Reachable++
	}
	return s, true
}

// Epoch returns the topology edit counter; the route table rebuilds
// lazily whenever it trails this value.
func (t *Topology) Epoch() uint64 { return t.epoch.Load() }

// Stats returns per-link congestion statistics, sorted by from/to.
func (t *Topology) Stats() []LinkStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []LinkStats
	for _, m := range t.links {
		for _, l := range m {
			s := LinkStats{From: l.From, To: l.To, Transfers: l.transfers}
			if l.transfers > 0 {
				s.MeanQueueWait = l.queueTotal / sim.Time(l.transfers)
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// serialization computes the time to push size bytes at bw bytes/sec.
func serialization(size int64, bw float64) sim.Time {
	if size <= 0 {
		return 0
	}
	sec := float64(size) / bw
	ns := sec * float64(sim.Second)
	if ns > float64(math.MaxInt64)/2 {
		return sim.MaxTime / 2
	}
	return sim.Time(ns)
}
