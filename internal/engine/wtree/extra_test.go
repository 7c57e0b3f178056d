package wtree

import (
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

func TestCheckpointWritesAllDirty(t *testing.T) {
	d := harness(t, func(cfg *Config) {
		cfg.CheckpointEvery = 50 * env.Millisecond
		cfg.DirtyTriggerFrac = 10 // effectively disable the eviction thread
		cfg.DirtyStallFrac = 10
	}, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 300; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		// Let at least one checkpoint pass.
		c.Sleep(200 * env.Millisecond)
	})
	if d.stats.CheckpointLeaves == 0 {
		t.Fatal("checkpoint never wrote a leaf")
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
