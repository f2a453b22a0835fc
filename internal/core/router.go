package core

import (
	"sync"

	"clash/internal/bitkey"
)

// Router is the client-side cache that maps key groups to the servers that
// manage them. After a client resolves the depth of a key once, it caches the
// (group → server) binding and sends all subsequent packets of the virtual
// stream directly, without DHT lookups, until it is redirected (paper §6: the
// client "simply caches this server value").
//
// The cache is one longest-prefix trie under one reader/writer lock: Route is
// an O(depth) zero-allocation walk under the read lock, and ForgetServer uses
// a per-server reverse index so evicting a failed server is proportional to
// the bindings it owned, not to the cache size.
//
// Router is safe for concurrent use.
type Router struct {
	keyBits int

	mu       sync.RWMutex
	trie     *bitkey.Trie[ServerID]
	byServer map[ServerID]map[bitkey.Key]struct{}
}

// NewRouter creates an empty router cache for an N-bit key space.
func NewRouter(keyBits int) *Router {
	return &Router{
		keyBits:  keyBits,
		trie:     bitkey.NewTrie[ServerID](),
		byServer: make(map[ServerID]map[bitkey.Key]struct{}),
	}
}

// Learn records that the given group is managed by the given server. Groups
// deeper than the key space are ignored: the pre-trie Route capped its probes
// at keyBits, so such a binding could never be returned. Re-learning an
// unchanged binding (every cache-hit publish does) returns under the read
// lock: the trie and the reverse index already agree on it.
func (r *Router) Learn(g bitkey.Group, server ServerID) {
	if g.Prefix.Bits > r.keyBits {
		return
	}
	p := g.Prefix
	r.mu.RLock()
	old, ok := r.trie.Get(p)
	r.mu.RUnlock()
	if ok && old == server {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.trie.Get(p); ok && old != server {
		r.unindex(old, p)
	}
	r.trie.Put(p, server)
	set := r.byServer[server]
	if set == nil {
		set = make(map[bitkey.Key]struct{})
		r.byServer[server] = set
	}
	set[p] = struct{}{}
}

// Forget drops the cached binding for a group (e.g. after a redirect).
func (r *Router) Forget(g bitkey.Group) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if server, ok := r.trie.Delete(g.Prefix); ok {
		r.unindex(server, g.Prefix)
	}
}

// ForgetServer drops every binding that points at the given server (used when
// a server leaves or fails).
func (r *Router) ForgetServer(server ServerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := range r.byServer[server] {
		r.trie.Delete(p)
	}
	delete(r.byServer, server)
}

// unindex drops p from server's reverse-index set; callers hold r.mu.
func (r *Router) unindex(server ServerID, p bitkey.Key) {
	if set := r.byServer[server]; set != nil {
		delete(set, p)
		if len(set) == 0 {
			delete(r.byServer, server)
		}
	}
}

// Route returns the cached (group, server) binding whose group contains the
// key, if any. Because cached groups may be stale, the caller must be
// prepared for the server to answer INCORRECT_DEPTH and then fall back to a
// full depth resolution.
//
//clash:hotpath
func (r *Router) Route(k bitkey.Key) (bitkey.Group, ServerID, bool) {
	r.mu.RLock()
	p, s, ok := r.trie.LongestMatch(k)
	r.mu.RUnlock()
	if !ok {
		return bitkey.Group{}, NoServer, false
	}
	return bitkey.Group{Prefix: p}, s, true
}
