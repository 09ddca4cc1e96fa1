package service

// Health is the readiness/liveness report of one dataset's service,
// served at GET /api/v1/healthz. Shard coordinators probe their remote
// members' healthz: Generation doubles as the member's store epoch, so
// a probe both confirms liveness and detects new data for cache
// invalidation.
type Health struct {
	// Status is "ok" when the dataset can serve queries, "unavailable"
	// otherwise (store closed — mid hot-swap or shut down).
	Status  string `json:"status"`
	Dataset string `json:"dataset,omitempty"`
	// StoreOpen reports the backing store accepts reads. On a shard
	// coordinator it describes the planning store, which lives as long
	// as the catalog entry — member health is in ShardStats.
	StoreOpen bool `json:"store_open"`
	// WALHeld reports this process holds the durable directory's write
	// lock (always false for in-memory datasets, which have no WAL).
	WALHeld bool `json:"wal_held"`
	// Sharded marks coordinator services.
	Sharded bool `json:"sharded,omitempty"`
	// Generation is the store version queries execute over: the commit
	// counter locally, the members' combined generation on a
	// coordinator.
	Generation uint64 `json:"generation"`
}

// Health snapshots the service's readiness.
func (s *Service) Health() Health {
	open := !s.db.Closed()
	h := Health{
		Status:    "ok",
		StoreOpen: open,
		WALHeld:   open && s.db.DurableStats().Dir != "",
		Sharded:   s.Sharded(),
	}
	if !open {
		h.Status = "unavailable"
		return h
	}
	h.Generation = s.generation()
	return h
}
