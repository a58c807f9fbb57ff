package census

import (
	"encoding/binary"
	"math"
	"sync"

	"github.com/gossipkit/noisyrumor/internal/obs"
)

// MinLawQuant is the smallest accepted non-zero quantization step η.
// Below it the lattice indices would leave the exactly representable
// float64 integer range (and the quantization would be finer than the
// default truncation tolerance ever warrants); SetLawQuant rejects
// (0, MinLawQuant) rather than quantizing meaninglessly.
const MinLawQuant = 1e-12

// maxLawCacheEntries caps a cache's entry count. The lattice keeps the
// set of distinct visited q̂ small in practice (a bisection hammers one
// ε neighborhood), but a pathological sweep could still visit many
// lattice points; past the cap the cache stops storing (counted in
// DroppedStores) — results never depend on cache contents, so the cap
// affects only cost.
const maxLawCacheEntries = 1 << 20

// lawEntry is one memoized Stage-2 law: the renormalized adoption
// distribution evaluated at a lattice point q̂, the truncation mass
// that evaluation dropped, and the pivot-sensitivity certificate
// factor (certSens) the engine multiplies into each phase's law-level
// quantization charge. Entries are immutable once stored.
type lawEntry struct {
	r       []float64
	dropped float64
	sens    float64
}

// LawCache memoizes quantized Stage-2 majority-law evaluations across
// engines. The key is (q̂ lattice indices, ℓ, tol, η) and the stored
// law and certificate are pure functions of the key — never of cache
// state, evaluation order or the engine that computed them — so
// sharing one cache across trials, sweep points and worker goroutines
// is sound and keeps runs bit-identical at any worker count. Safe for
// concurrent use.
type LawCache struct {
	mu      sync.Mutex
	entries map[string]lawEntry
	// maxEntries caps len(entries); 0 means maxLawCacheEntries. Tests
	// inject tiny caps to exercise the saturation path.
	maxEntries int
	// The lifetime stats are obs counters (atomic int64 underneath, so
	// the semantics of the former bare atomics are unchanged) so that
	// Register can export the very same instances a harness reads
	// through Stats()/HitRate() — one owner, no double accounting.
	hits          obs.Counter
	misses        obs.Counter
	droppedStores obs.Counter
}

// NewLawCache returns an empty cache ready for sharing.
func NewLawCache() *LawCache {
	return &LawCache{entries: make(map[string]lawEntry)}
}

// lookup returns the entry for key, counting the probe as a hit or a
// miss. key is raw bytes: the map index uses the compiler's
// alloc-free string(key) lookup form, so the ~96%-hit hot path never
// materializes a string.
func (c *LawCache) lookup(key []byte) (lawEntry, bool) {
	c.mu.Lock()
	ent, ok := c.entries[string(key)]
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return ent, ok
}

// store records an evaluated law and its certificate under key,
// copying r and the key bytes (callers reuse both buffers), and
// returns the entry so hit and miss paths share one arithmetic. At the
// entry cap a new key is not inserted — the drop is counted in
// DroppedStores (a saturated cache otherwise masquerades as a low hit
// rate) — but the entry is still returned, so results never depend on
// whether the store landed.
func (c *LawCache) store(key []byte, r []float64, dropped, sens float64) lawEntry {
	ent := lawEntry{r: append([]float64(nil), r...), dropped: dropped, sens: sens}
	max := c.maxEntries
	if max <= 0 {
		max = maxLawCacheEntries
	}
	c.mu.Lock()
	_, exists := c.entries[string(key)]
	full := !exists && len(c.entries) >= max
	if !full {
		c.entries[string(key)] = ent
	}
	c.mu.Unlock()
	if full {
		c.droppedStores.Inc()
	}
	return ent
}

// Stats returns the cache's lifetime lookup counts.
func (c *LawCache) Stats() (hits, misses int64) {
	// The counters ARE the cache's source of truth for these tallies
	// (no shadow ints), and hit/miss counts are a pure function of the
	// deterministic lookup sequence — reading them cannot smuggle
	// scheduling into results.
	//nrlint:allow obswrite -- counters are the canonical hit/miss tallies, values are determined by the lookup sequence
	return c.hits.Value(), c.misses.Value()
}

// DroppedStores returns how many evaluated laws could not be stored
// because the cache was at its entry cap. A non-zero value explains a
// low hit rate: the sweep visits more lattice points than the cache
// can hold, and evaluations past the cap are recomputed every time.
func (c *LawCache) DroppedStores() int64 {
	//nrlint:allow obswrite -- counter is the canonical dropped-store tally, diagnostics-only and capacity-determined
	return c.droppedStores.Value()
}

// Register exports the cache's lifetime counters and live entry/
// capacity gauges under the lawcache_* names (DESIGN.md §2). The
// attached counters are the cache's own instances — Stats, HitRate and
// /metrics read the same atomics — and the gauges are read at scrape
// time, so registration adds no work to the lookup path. Nil cache or
// registry is a no-op.
func (c *LawCache) Register(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.AttachCounter("lawcache_hits_total",
		"Law-cache lookups that found a memoized Stage-2 law.", &c.hits)
	reg.AttachCounter("lawcache_misses_total",
		"Law-cache lookups that had to evaluate the Stage-2 law.", &c.misses)
	reg.AttachCounter("lawcache_dropped_stores_total",
		"Evaluated laws not stored because the cache was at its entry cap.", &c.droppedStores)
	reg.GaugeFunc("lawcache_entries",
		"Stage-2 laws currently memoized.", func() float64 { return float64(c.Len()) })
	reg.GaugeFunc("lawcache_capacity",
		"Law-cache entry cap.", func() float64 {
			max := c.maxEntries
			if max <= 0 {
				max = maxLawCacheEntries
			}
			return float64(max)
		})
}

// HitRate returns hits/(hits+misses), or 0 before the first lookup.
func (c *LawCache) HitRate() float64 {
	h, m := c.Stats()
	//nrlint:allow overflow -- hit/miss counters increment by 1 per lookup; wrapping needs 2⁶² lookups
	t := h + m
	if t == 0 {
		return 0
	}
	return float64(h) / float64(t)
}

// Len returns the number of stored laws.
func (c *LawCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// quantizeQ rounds the pool distribution q onto the deterministic
// η-lattice and renormalizes: with m_j = round(q_j/η), the quantized
// point is q̂_j = m_j/Σm — a pure function of (q, η), independent of
// cache state or evaluation order. It writes q̂ into qhat, the lattice
// indices into idx, and returns d_TV(q, q̂) = ½·Σ|q_j − q̂_j|, the
// per-draw coupling distance entering the phase's law-level
// certificate ℓ·d_TV·sens (see certSens and Engine.stage2Law).
// ok is false when every index rounds to zero (η too coarse for this
// pool point); callers then fall back to the exact law.
func quantizeQ(q []float64, eta float64, qhat []float64, idx []int64) (dtv float64, ok bool) {
	var sum int64
	for j, p := range q {
		m := int64(math.Round(p / eta))
		idx[j] = m
		//nrlint:allow overflow -- m ≤ round(1/η) ≤ 1/MinLawQuant = 10¹², so Σm ≤ k·10¹² ≪ 2⁶³
		sum += m
	}
	if sum <= 0 {
		return 0, false
	}
	total := float64(sum)
	for j, m := range idx {
		qhat[j] = float64(m) / total
		dtv += math.Abs(q[j] - qhat[j])
	}
	return dtv / 2, true
}

// lawKey serializes (idx, ℓ, tol, η) into buf as a cache key. Varint
// encoding is self-delimiting, so distinct (k, ℓ, tol, η, lattice)
// tuples never collide. η is part of the key because the memoized
// certificate factor (lawEntry.sens) depends on the η-cell radius,
// not only on the lattice point.
func lawKey(buf []byte, idx []int64, ell int, tol, eta float64) []byte {
	buf = buf[:0]
	buf = binary.AppendUvarint(buf, uint64(ell))
	buf = binary.AppendUvarint(buf, math.Float64bits(tol))
	buf = binary.AppendUvarint(buf, math.Float64bits(eta))
	for _, m := range idx {
		//nrlint:allow overflow -- lattice indices round a distribution q ≥ 0, so m ≥ 0 and uint64 is exact
		buf = binary.AppendUvarint(buf, uint64(m))
	}
	return buf
}
