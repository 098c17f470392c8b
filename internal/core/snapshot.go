// snapshot.go assembles the engine's unified observability surface: one
// typed snapshot of every metric the layers feed. The former
// PlanCacheStats / Stats / LastLoadStats thin views are collapsed into
// this surface: read Snapshot.PlanCache, Snapshot.DB +
// Snapshot.Warehouses, and Snapshot.LastLoad.
package core

import (
	"xomatiq/internal/obs"
	"xomatiq/internal/shred"
	"xomatiq/internal/sql"
)

// Snapshot is a point-in-time view of everything the engine measures:
// the atomic registry groups (pool, WAL, heap, index, query, ingest),
// the plan cache, the physical database state, the per-warehouse counts
// and the last load's throughput.
type Snapshot struct {
	obs.RegistrySnapshot

	PlanCache  PlanCacheStats
	DB         sql.Stats
	Warehouses []shred.WarehouseInfo
	LastLoad   LoadStats
	Sessions   []SessionInfo
}

// Snapshot captures the engine's metrics. It is safe to call
// concurrently with queries and loads: the registry and plan-cache reads
// are atomic loads or short internal-mutex sections, and the physical
// stats take only read locks — a monitoring loop can never block a query
// worker. Counter groups may be mutually skewed by in-flight work, but
// every counter is monotone across snapshots.
func (e *Engine) Snapshot() (Snapshot, error) {
	whs, err := e.store.Overview()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{
		RegistrySnapshot: e.reg.Snapshot(),
		PlanCache:        e.plans.stats(),
		DB:               e.db.Stats(),
		Warehouses:       whs,
		LastLoad:         e.lastLoadStats(),
		Sessions:         e.Sessions(),
	}, nil
}

// Metrics flattens the snapshot into the canonical dotted-key map shared
// by the console's \metrics view and the server's /metrics endpoint:
// the registry keys plus plancache.* and db.* gauges.
func (s Snapshot) Metrics() map[string]float64 {
	m := s.RegistrySnapshot.Metrics()
	m["plancache.entries"] = float64(s.PlanCache.Entries)
	m["plancache.hits"] = float64(s.PlanCache.Hits)
	m["plancache.misses"] = float64(s.PlanCache.Misses)
	m["plancache.invalidations"] = float64(s.PlanCache.Invalidations)
	m["db.file_pages"] = float64(s.DB.FilePages)
	m["db.wal_bytes"] = float64(s.DB.WALBytes)
	m["db.dirty_pages"] = float64(s.DB.DirtyPages)
	m["db.free_pages"] = float64(s.DB.FreePages)
	m["db.retired_pages"] = float64(s.DB.RetiredPages)
	for _, t := range s.DB.Tables {
		m["db.table."+t.Name+".heap_pages"] = float64(t.HeapPages)
		m["db.table."+t.Name+".heap_bytes"] = float64(t.HeapBytes)
		for ix, n := range t.IndexPages {
			m["db.index."+ix+".pages"] = float64(n)
		}
	}
	return m
}

// Registry exposes the engine's live metrics registry (benchmarks and
// embedders that want raw counter handles rather than snapshots).
func (e *Engine) Registry() *obs.Registry { return e.reg }
