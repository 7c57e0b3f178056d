package wtree

import (
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

// TestCheckpointWritesAllDirty keeps the dirty bytes below the eviction
// trigger of a large cache, so only the checkpoint thread writes leaves back.
func TestCheckpointWritesAllDirty(t *testing.T) {
	d := harness(t, func(cfg *Config) {
		cfg.CacheBytes = 64 << 20
	}, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 300; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		// Let at least one checkpoint pass.
		c.Sleep(checkpointEvery + 200*env.Millisecond)
	})
	if d.stats.CheckpointLeaves == 0 {
		t.Fatal("checkpoint never wrote a leaf")
	}
	if d.stats.EvictedLeaves != d.stats.CheckpointLeaves {
		t.Fatalf("%d leaf writes, %d of them by checkpoints: eviction ran", d.stats.EvictedLeaves, d.stats.CheckpointLeaves)
	}
	if n := d.t.DirtyBytes(); n != 0 {
		t.Fatalf("dirty bytes %d after checkpoint quiesce", n)
	}
}

func TestDeleteMissingKey(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		if d.Delete(c, kv.Key(99)) {
			t.Fatal("delete of missing key returned true")
		}
	})
}
