package gles

import "sync"

// SharedProgramCache memoises successful shader compilations across
// contexts: a serving deployment keeps one long-lived engine per worker, and
// every worker of a device pool compiles the same small set of kernels. The
// cache shares the immutable compiled artefacts (glsl.CheckedShader,
// shader.Program) between those contexts so each distinct source compiles
// once per pool rather than once per engine.
//
// Sharing compiled Programs across contexts needs equal device Limits
// across the sharing contexts: Limits are the only device input left in a
// compiled program (instruction costs are the same on every device), so
// equal Limits make the compile-time limit checks agree. The serve layer
// shares one *device.Profile per pool.
//
// All methods are safe for concurrent use.
type SharedProgramCache struct {
	mu      sync.Mutex
	entries map[shaderCacheKey]shaderCacheEntry
	hits    int64
	misses  int64
}

// NewSharedProgramCache returns an empty cache.
func NewSharedProgramCache() *SharedProgramCache {
	return &SharedProgramCache{entries: make(map[shaderCacheKey]shaderCacheEntry)}
}

// lookup returns the cached entry for key, counting a hit or miss.
func (s *SharedProgramCache) lookup(key shaderCacheKey) (shaderCacheEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return e, ok
}

// store publishes a successful compilation. The entry's artefacts must be
// fully built (limits checked) before store: after publication other
// contexts execute them without further synchronisation.
func (s *SharedProgramCache) store(key shaderCacheKey, e shaderCacheEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = e
}

// Stats returns the lookup hit/miss counters.
func (s *SharedProgramCache) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// SetSharedProgramCache attaches a cross-context compilation cache,
// consulted by CompileShader before the context's own cache. Pass nil to
// detach. See the SharedProgramCache doc for the sharing conditions.
func (c *Context) SetSharedProgramCache(s *SharedProgramCache) { c.sharedCache = s }
