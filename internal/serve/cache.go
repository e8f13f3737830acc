package serve

import (
	"sync"

	"github.com/etransform/etransform/internal/model"
)

// planCache maps state hashes (model.CanonicalHash) to finished
// certified plans. The key needs no options part: each Server owns its
// cache, and every job that reads or writes it solves under the one
// Config.Core the Server was created with. Only clean plans — no
// degradation report at all — are stored: a degraded or even merely
// recovered solve depends on budget timing and retry trajectory, so
// replaying its bytes to a later identical submission would present one
// run's luck as the model's answer.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	plan      *model.Plan
	planBytes []byte // exact bytes WritePlan produced for the solving job
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*cacheEntry)}
}

// get returns the entry for key, or nil.
func (c *planCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// put stores a finished plan under key. First writer wins: concurrent
// identical submissions race benignly, and the bytes any later reader
// sees are one specific solve's output.
func (c *planCache) put(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; !dup {
		c.entries[key] = e
	}
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
