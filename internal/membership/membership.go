// Package membership gives the cluster tier runtime elasticity: replicas
// announce themselves to the router instead of being frozen into a
// -replicas flag at startup.
//
// The protocol is deliberately minimal — one announcement verb, carried
// over the HTTP surface both tiers already have:
//
//   - POST /v1/cluster/join {"url": ...} registers a replica, and a
//     repeat of the same request is its heartbeat (an idempotent upsert
//     that refreshes the member's TTL). A replica that can retry one
//     POST in a loop needs no further protocol state, and a router
//     restart heals itself: the next heartbeat round re-registers every
//     live replica.
//   - POST /v1/cluster/leave {"url": ...} withdraws a replica
//     immediately (graceful drain). Crashed replicas never send it;
//     their membership expires when heartbeats stop for TTL.
//
// The server half is Registry: the router's membership table, with a TTL
// sweeper for silent departures, a ledger of recent departures (the
// stats endpoint reports a mid-fan-out leaver as departed, not errored),
// and OnJoin/OnLeave callbacks the router uses to drive its health
// checker and hash ring. The client half is Announcer: the loop a
// replica runs next to its listener — join on start, heartbeat every
// interval, leave on drain.
//
// Membership is deliberately *not* health: joining makes a replica known,
// the router's health checker decides (via its probation/readmit path)
// when the replica is fit to own keys. A member can be ejected by the
// checker and still be a member — it keeps heartbeating and is readmitted
// when probes pass — while a member that stops heartbeating is removed
// outright.
package membership

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// Reasons attached to departures, for the event ledger and callbacks.
const (
	ReasonLeave   = "leave"   // explicit POST /v1/cluster/leave
	ReasonExpired = "expired" // heartbeats stopped for longer than TTL
)

// Config parameterizes a Registry. The zero value gives production-ish
// defaults sized for the default 2s health-probe cadence.
type Config struct {
	// Enabled gates the router's join/leave endpoints. Off, the cluster
	// is the static -replicas list and announcements answer 403.
	Enabled bool
	// TTL is how long a dynamic member survives without a heartbeat; 0
	// selects 15s. Announcers should heartbeat at TTL/3 or faster.
	TTL time.Duration
	// SweepInterval is the expiry-scan period; 0 selects TTL/4.
	SweepInterval time.Duration
	// DepartedLog bounds the recent-departure ledger; 0 selects 32.
	DepartedLog int
}

func (c *Config) defaults() {
	if c.TTL == 0 {
		c.TTL = 15 * time.Second
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.TTL / 4
	}
	if c.DepartedLog == 0 {
		c.DepartedLog = 32
	}
}

// Member is one row of the membership table.
type Member struct {
	Node string `json:"node"`
	// Static marks a replica seeded from the router's -replicas flag.
	// Static members never expire — the health checker alone decides
	// their fate — but an explicit leave still withdraws them.
	Static   bool      `json:"static"`
	JoinedAt time.Time `json:"-"`
	LastSeen time.Time `json:"-"`
}

// Departure is one entry of the recent-departure ledger.
type Departure struct {
	Node   string    `json:"node"`
	Reason string    `json:"reason"`
	At     time.Time `json:"-"`
}

// Registry is the router-side membership table. Construct with
// NewRegistry, Start the TTL sweeper, Close when done. All methods are
// safe for concurrent use; callbacks run outside the registry lock, one
// transition at a time per call.
type Registry struct {
	cfg Config

	// onJoin fires when a node becomes a member; onLeave when it stops
	// being one (reason ReasonLeave or ReasonExpired). Either may be nil.
	onJoin  func(node string)
	onLeave func(node, reason string)

	mu       sync.Mutex
	members  map[string]*Member
	departed []Departure // newest last, capped at DepartedLog

	joins  uint64
	leaves uint64

	started  bool
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewRegistry builds a registry. onJoin/onLeave may be nil.
func NewRegistry(cfg Config, onJoin func(node string), onLeave func(node, reason string)) *Registry {
	cfg.defaults()
	return &Registry{
		cfg:     cfg,
		onJoin:  onJoin,
		onLeave: onLeave,
		members: make(map[string]*Member),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// NormalizeNode canonicalizes an announced replica URL: scheme+host only,
// lowercased scheme/host, trailing slash stripped, host escaped as a URL
// carries it. An IPv6 zone keeps its case: it names an interface, and
// interface names can be case-sensitive. A URL carrying anything beyond
// an origin (a path, userinfo, a query or a fragment) is rejected rather
// than trimmed. Announcements and the router's own -replicas flag must
// agree on one spelling per replica or the ring would hold duplicate
// nodes.
func NormalizeNode(raw string) (string, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return "", errors.New("membership: empty node URL")
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("membership: bad node URL %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("membership: node URL %q must be http(s)", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("membership: node URL %q has no host", raw)
	}
	if u.Path != "" && u.Path != "/" {
		return "", fmt.Errorf("membership: node URL %q must not carry a path", raw)
	}
	if u.User != nil {
		return "", fmt.Errorf("membership: node URL %q must not carry userinfo", raw)
	}
	if u.RawQuery != "" || u.ForceQuery || strings.Contains(s, "#") {
		return "", fmt.Errorf("membership: node URL %q must not carry a query or fragment", raw)
	}
	host := strings.ToLower(u.Host)
	if addr, zone, ok := strings.Cut(u.Host, "%"); ok && strings.HasPrefix(addr, "[") {
		host = strings.ToLower(addr) + "%" + zone
	}
	// Re-escape the decoded host: an IPv6 zone ("[fe80::1%25en0]") or a
	// non-ASCII name must come out in the form it was parsed from, or the
	// result would not normalize to itself.
	canon := url.URL{Scheme: strings.ToLower(u.Scheme), Host: host}
	return canon.String(), nil
}

// SeedStatic registers the router's statically configured replicas as
// permanent members. Call once, before Start.
func (g *Registry) SeedStatic(nodes []string) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, n := range nodes {
		if g.members[n] == nil {
			g.members[n] = &Member{Node: n, Static: true, JoinedAt: now, LastSeen: now}
		}
	}
}

// Join registers node (or refreshes its heartbeat TTL when already a
// member) and reports whether this call added a new member. A re-joining
// node that previously left or expired counts as a fresh join.
func (g *Registry) Join(node string) bool {
	now := time.Now()
	g.mu.Lock()
	if m := g.members[node]; m != nil {
		m.LastSeen = now
		g.mu.Unlock()
		return false
	}
	g.members[node] = &Member{Node: node, JoinedAt: now, LastSeen: now}
	g.joins++
	g.mu.Unlock()
	if g.onJoin != nil {
		g.onJoin(node)
	}
	return true
}

// Leave withdraws node with the given reason, reporting whether it was a
// member. Static members may leave too (a statically configured replica
// draining gracefully announces it like any other).
func (g *Registry) Leave(node, reason string) bool {
	g.mu.Lock()
	if g.members[node] == nil {
		g.mu.Unlock()
		return false
	}
	delete(g.members, node)
	g.leaves++
	g.recordDepartureLocked(node, reason)
	g.mu.Unlock()
	if g.onLeave != nil {
		g.onLeave(node, reason)
	}
	return true
}

// recordDepartureLocked appends to the departure ledger, dropping the
// oldest entry at capacity. Caller holds g.mu.
func (g *Registry) recordDepartureLocked(node, reason string) {
	g.departed = append(g.departed, Departure{Node: node, Reason: reason, At: time.Now()})
	if over := len(g.departed) - g.cfg.DepartedLog; over > 0 {
		g.departed = append(g.departed[:0], g.departed[over:]...)
	}
}

// Contains reports whether node is currently a member.
func (g *Registry) Contains(node string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[node] != nil
}

// Len reports the member count.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// Nodes returns the member node URLs, sorted.
func (g *Registry) Nodes() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.members))
	for n := range g.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Members returns a snapshot of the table, sorted by node.
func (g *Registry) Members() []Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Member, 0, len(g.members))
	for _, m := range g.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Departed returns the recent-departure ledger, oldest first.
func (g *Registry) Departed() []Departure {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Departure(nil), g.departed...)
}

// Counts reports lifetime join and leave totals (expiries count as
// leaves).
func (g *Registry) Counts() (joins, leaves uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.joins, g.leaves
}

// Start launches the TTL sweeper: every SweepInterval, dynamic members
// whose last heartbeat is older than TTL leave with ReasonExpired.
func (g *Registry) Start() {
	g.mu.Lock()
	g.started = true
	g.mu.Unlock()
	go func() {
		defer close(g.done)
		t := time.NewTicker(g.cfg.SweepInterval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.sweep()
			}
		}
	}()
}

// sweep expires silent dynamic members. Expiry decisions are taken under
// the lock; the Leave calls (and their callbacks) run outside it.
func (g *Registry) sweep() {
	cutoff := time.Now().Add(-g.cfg.TTL)
	g.mu.Lock()
	var expired []string
	for n, m := range g.members {
		if !m.Static && m.LastSeen.Before(cutoff) {
			expired = append(expired, n)
		}
	}
	g.mu.Unlock()
	sort.Strings(expired) // deterministic callback order
	for _, n := range expired {
		g.Leave(n, ReasonExpired)
	}
}

// Close stops the sweeper and waits for it to exit. Idempotent; safe to
// call even if Start never ran.
func (g *Registry) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.mu.Lock()
	started := g.started
	g.mu.Unlock()
	if started {
		<-g.done
	}
}
