package lsm

import (
	"bytes"
	"sort"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/slab"
)

// flushCond and closing flags live on db.go's locks; the flush loop turns
// the immutable memtable into an L0 table (§3.1: the memory component).
func (d *DB) flushLoop(c env.Ctx) {
	// Per-thread scratch arena: page images built here are dead once finish
	// writes them, so each flush reuses the previous flush's memory.
	arena := slab.NewArena(1 << 20)
	for {
		d.writeMu.Lock(c)
		for d.imm == nil && !d.closing {
			d.writeCond.Wait(c) // writers broadcast when imm is set
		}
		if d.imm == nil && d.closing {
			d.writeMu.Unlock(c)
			return
		}
		imm := d.imm
		d.writeMu.Unlock(c)

		bc := d.cfg.Tracer.BeginBg("flush", c.Now())
		c.SetTrace(bc)

		d.verMu.Lock(c)
		disk := d.nextDisk()
		d.verMu.Unlock(c)

		b := d.newBuilder(disk)
		b.arena = arena
		imm.each(func(e entry) { b.add(&e) })
		c.CPU(costs.MemBytes(int(imm.bytes)))
		t := b.finish(c) // timed sequential writes + index build CPU
		arena.Reset()    // every page image has been written out

		d.verMu.Lock(c)
		if t != nil {
			d.levels[0] = append(d.levels[0], t)
		}
		d.verMu.Unlock(c)
		d.verCond.Broadcast(c)

		d.writeMu.Lock(c)
		d.imm = nil
		d.stats.Flushes++
		d.writeMu.Unlock(c)
		d.writeCond.Broadcast(c) // wake writers stalled on the flush

		c.SetTrace(nil)
		d.cfg.Tracer.FinishBg(bc, c.Now())
	}
}

// compaction is one selected job.
type compaction struct {
	level   int
	inputs  []*sstable // tables leaving level
	targets []*sstable // tables in level+1 being merged (leveled mode)
}

// levelTargetBytes is the size budget of level i (i >= 1).
func (d *DB) levelTargetBytes(i int) int64 {
	t := d.cfg.BaseLevelBytes
	for j := 1; j < i; j++ {
		t *= LevelMultiplier
	}
	return t
}

func levelBytes(lvl []*sstable) int64 {
	var n int64
	for _, t := range lvl {
		n += t.dataLen
	}
	return n
}

// pickCompaction selects the highest-scoring level (verMu held).
func (d *DB) pickCompaction() *compaction {
	bestScore := 1.0
	best := -1
	for i := 0; i < len(d.levels)-1; i++ {
		var score float64
		if i == 0 {
			score = float64(len(d.levels[0])) / l0CompactionTrigger
		} else {
			score = float64(levelBytes(d.levels[i])) / float64(d.levelTargetBytes(i))
		}
		if score >= bestScore {
			bestScore = score
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	cmp := &compaction{level: best}
	if best == 0 {
		for _, t := range d.levels[0] {
			if d.busy[t.id] {
				return nil // an L0 compaction is already running
			}
		}
		cmp.inputs = append(cmp.inputs, d.levels[0]...)
	} else {
		// Oldest non-busy table.
		var oldest *sstable
		for _, t := range d.levels[best] {
			if d.busy[t.id] {
				continue
			}
			if oldest == nil || t.id < oldest.id {
				oldest = t
			}
		}
		if oldest == nil {
			return nil
		}
		cmp.inputs = append(cmp.inputs, oldest)
	}
	// Input key range.
	min, max := cmp.inputs[0].min, cmp.inputs[0].max
	for _, t := range cmp.inputs[1:] {
		if bytes.Compare(t.min, min) < 0 {
			min = t.min
		}
		if bytes.Compare(t.max, max) > 0 {
			max = t.max
		}
	}
	// Targets: merged only in leveled mode, or when compacting into the
	// last level in fragmented mode (PebblesDB merges there).
	intoLast := cmp.level+1 == len(d.levels)-1
	if !d.cfg.Fragmented || intoLast {
		for _, t := range d.levels[cmp.level+1] {
			if t.overlaps(min, max) {
				if d.busy[t.id] {
					return nil
				}
				cmp.targets = append(cmp.targets, t)
			}
		}
	}
	for _, t := range cmp.inputs {
		d.busy[t.id] = true
	}
	for _, t := range cmp.targets {
		d.busy[t.id] = true
	}
	return cmp
}

func (d *DB) compactLoop(c env.Ctx) {
	// Per-thread scratch arena for merge chunks and output page images;
	// reset after each job, so steady-state compaction reuses one footprint.
	arena := slab.NewArena(1 << 20)
	for {
		d.verMu.Lock(c)
		job := d.pickCompaction()
		for job == nil && !d.closing {
			d.verCond.Wait(c)
			job = d.pickCompaction()
		}
		if d.closing {
			if job != nil {
				for _, t := range append(job.inputs, job.targets...) {
					delete(d.busy, t.id)
				}
			}
			d.verMu.Unlock(c)
			return
		}
		d.verMu.Unlock(c)
		d.runCompaction(c, job, arena)
		arena.Reset()
	}
}

// compactionSource streams a table's entries with large sequential reads
// (bypassing the block cache, as RocksDB compactions do).
func (d *DB) compactionSource(c env.Ctx, t *sstable, arena *slab.Arena) *scanSource {
	bi := 0
	var chunk []byte
	var chunkStart int64 = -1
	var off int
	var data []byte
	const chunkPages = 64
	getBlock := func(blk *block) []byte {
		rel := blk.page - t.basePage
		need := int64(blk.pages)
		if chunk == nil || rel < chunkStart || rel+need > chunkStart+int64(len(chunk)/device.PageSize) {
			n := int64(chunkPages)
			if rel+n > t.pages {
				n = t.pages - rel
			}
			if need > n {
				n = need
			}
			// The merge copies entries out of the chunk before the source
			// advances past it, so the buffer can be reused in place; the
			// arena only grows when a chunk is larger than any before it.
			if int(n*device.PageSize) <= cap(chunk) {
				chunk = chunk[:n*device.PageSize]
			} else {
				chunk = arena.Alloc(int(n * device.PageSize))
			}
			d.io[t.disk].Read(c, t.basePage+rel, chunk)
			d.stats.CompactionBytesRead += n * device.PageSize
			chunkStart = rel
		}
		o := (rel - chunkStart) * device.PageSize
		return chunk[o : o+need*device.PageSize][:blk.length]
	}
	return &scanSource{next: func() (entry, bool) {
		for {
			if data == nil {
				if bi >= len(t.blocks) {
					return entry{}, false
				}
				data = getBlock(&t.blocks[bi])
				off = 0
			}
			e, next, ok := decodeEntry(data, off)
			if !ok {
				data = nil
				bi++
				continue
			}
			off = next
			c.CPU(costs.MergeBytes(e.bytes()))
			return e, true
		}
	}}
}

// runCompaction merges the job's tables and installs the result into
// level+1 (§3.1: the CPU- and I/O-intensive maintenance operation that
// LSM designs require and KVell eliminates).
func (d *DB) runCompaction(c env.Ctx, job *compaction, arena *slab.Arena) {
	bc := d.cfg.Tracer.BeginBg("compaction", c.Now())
	c.SetTrace(bc)
	toLevel := job.level + 1
	// Tombstones may be dropped only at the bottommost level, where every
	// overlapping table participates in the merge.
	dropTombstones := toLevel == len(d.levels)-1

	var sources []*scanSource
	for _, t := range job.inputs {
		sources = append(sources, d.compactionSource(c, t, arena))
	}
	for _, t := range job.targets {
		sources = append(sources, d.compactionSource(c, t, arena))
	}

	d.verMu.Lock(c)
	disk := d.nextDisk()
	d.verMu.Unlock(c)

	var outputs []*sstable
	b := d.newBuilder(disk)
	b.arena = arena
	emit := func(e *entry) {
		if e.tombstone && dropTombstones {
			return
		}
		b.add(e)
		if b.estimatedBytes() >= d.cfg.TableTargetBytes {
			if t := b.finish(c); t != nil {
				outputs = append(outputs, t)
				d.stats.CompactionBytesWritten += t.dataLen
			}
			d.verMu.Lock(c)
			disk = d.nextDisk()
			d.verMu.Unlock(c)
			b = d.newBuilder(disk)
			b.arena = arena
		}
	}

	// Keep only the newest version of each key.
	m := merger{sources: sources}
	for {
		e, dup, ok := m.next()
		if !ok {
			break
		}
		if !dup {
			emit(&e)
		}
	}
	if t := b.finish(c); t != nil {
		outputs = append(outputs, t)
		d.stats.CompactionBytesWritten += t.dataLen
	}

	// Install the new version.
	d.verMu.Lock(c)
	d.stats.Compactions++
	remove := func(lvl int, victims []*sstable) {
		keep := d.levels[lvl][:0]
		for _, t := range d.levels[lvl] {
			victim := false
			for _, v := range victims {
				if v == t {
					victim = true
					break
				}
			}
			if victim {
				delete(d.busy, t.id)
				if t.refs == 0 {
					d.free(c, t)
				} else {
					t.zombie = true // freed by unref when the last reader drops it
				}
			} else {
				keep = append(keep, t)
			}
		}
		d.levels[lvl] = keep
	}
	remove(job.level, job.inputs)
	if len(job.targets) > 0 {
		remove(toLevel, job.targets)
	}
	d.levels[toLevel] = append(d.levels[toLevel], outputs...)
	if !d.cfg.Fragmented || toLevel == len(d.levels)-1 && len(job.targets) > 0 {
		sort.Slice(d.levels[toLevel], func(i, j int) bool {
			return bytes.Compare(d.levels[toLevel][i].min, d.levels[toLevel][j].min) < 0
		})
	}
	d.verMu.Unlock(c)
	d.verCond.Broadcast(c)   // more compaction may be needed
	d.writeCond.Broadcast(c) // L0 stalls may clear

	c.SetTrace(nil)
	d.cfg.Tracer.FinishBg(bc, c.Now())
}
