package api

import "sync"

// Registry is the sink's metrics surface: each layer (ingest, store,
// lifecycle, bus, the monitor) registers its own counters at wiring time
// and GET /metrics gathers them into one flat expvar-style JSON object —
// replacing the ad-hoc map building that used to live in one giant
// handler. Keys are whatever the providers emit; encoding/json sorts map
// keys, so the wire bytes depend only on the key/value set.
type Registry struct {
	mu        sync.Mutex
	providers []func(out map[string]any)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers a provider that writes its keys into out at gather time.
// Providers run in registration order; later writers win on key collision
// (avoid colliding — every layer owns a distinct key prefix).
func (r *Registry) Add(fn func(out map[string]any)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.providers = append(r.providers, fn)
}

// Gather runs every provider into a fresh map.
func (r *Registry) Gather() map[string]any {
	r.mu.Lock()
	providers := make([]func(map[string]any), len(r.providers))
	copy(providers, r.providers)
	r.mu.Unlock()
	out := make(map[string]any, 64)
	for _, fn := range providers {
		fn(out)
	}
	return out
}
