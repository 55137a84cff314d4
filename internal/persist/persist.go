// Package persist is the engine's durability subsystem: it makes the
// learned adaptation state of an SbQA deployment — the per-participant
// satisfaction windows that drive the adaptive ω of Equation 2, the active
// allocation policy and its generation, and the allocators' sampling-stream
// positions — survive process restarts, so a redeployed or crashed engine
// resumes warm instead of re-learning from scratch under live traffic.
//
// The subsystem has three cooperating parts:
//
//   - a snapshot codec (snapshot.go): a versioned, checksummed, atomically
//     written (temp file + rename) serialization of the full adaptation
//     state. Snapshots capture the exact ring-buffer contents of every
//     satisfaction tracker, not just the derived δs, so every value a
//     restored registry computes is bit-identical to the exported one's.
//
//   - an append-only journal (journal.go): a write-ahead log of mediation
//     outcomes, participant departures, and policy changes, split into
//     sealed segments with a configurable fsync cadence. Records are
//     individually checksummed and length-prefixed, so a torn final record
//     (the signature of a crash mid-write) is detected and tolerated.
//
//   - a store (store.go) tying both together: restore loads the newest
//     decodable snapshot and replays the journal tail over it (if snapshot
//     files exist but none decodes, restore fails loudly rather than
//     silently starting near-cold); background compaction folds sealed
//     segments into a fresh snapshot and prunes what the snapshot covers. The recorder (recorder.go) feeds the
//     journal asynchronously off the engine's typed event stream through a
//     bounded, drop-counting queue, so persistence can never stall a
//     mediation.
//
// # Loss model
//
// After a graceful Close (which drains the recorder and writes a final
// snapshot) a restart is lossless, and — because the snapshot includes the
// allocator sampling states — the restored engine's allocation sequence is
// byte-identical to an uninterrupted run. After a crash, the journal
// recovers every outcome synced before the crash: at most the last unsynced
// batch (SyncEvery-1 appended records plus whatever sat in the recorder
// queue) is lost, and the allocator sampling streams rewind to the last
// snapshot, so post-crash allocations are statistically equivalent but not
// byte-identical. See DESIGN.md §8 for the full per-crash-mode accounting.
package persist

import (
	"errors"
	"time"
)

// Defaults for Config fields left zero.
const (
	// DefaultSyncEvery is the default fsync cadence: one fsync per this
	// many appended journal records.
	DefaultSyncEvery = 64

	// DefaultSegmentBytes is the default journal segment rotation
	// threshold.
	DefaultSegmentBytes = 4 << 20

	// DefaultQueueDepth is the default recorder queue bound.
	DefaultQueueDepth = 4096

	// DefaultCompactAfterSegments is how many sealed segments accumulate
	// before background compaction folds them into a fresh snapshot.
	DefaultCompactAfterSegments = 4

	// DefaultCompactInterval is how often the engine's persistence loop
	// checks whether compaction is due.
	DefaultCompactInterval = 30 * time.Second
)

// Config tunes the durability subsystem. The zero value selects the
// documented defaults. SyncEvery is the one field deployments set (it has
// an Option); the rest are fixed at their defaults outside tests, which
// shrink them with a literal func(*Config).
type Config struct {
	// SyncEvery is the fsync cadence: the journal fsyncs after every
	// SyncEvery appended records (1 = every record — maximum durability,
	// maximum latency). The journal also syncs on segment rotation, on
	// Drain, and on Close. Values below 1 mean DefaultSyncEvery.
	SyncEvery int

	// SegmentBytes rotates the active journal segment once it exceeds
	// this size. Values below 1 mean DefaultSegmentBytes.
	SegmentBytes int64

	// QueueDepth bounds the recorder's asynchronous queue; events beyond
	// it are dropped (and counted) rather than blocking the engine.
	// Values below 1 mean DefaultQueueDepth.
	QueueDepth int

	// CompactAfterSegments is the sealed-segment count that triggers
	// background compaction. Values below 1 mean
	// DefaultCompactAfterSegments.
	CompactAfterSegments int

	// CompactInterval is the cadence of the engine's compaction check.
	// Values <= 0 mean DefaultCompactInterval.
	CompactInterval time.Duration
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.SyncEvery < 1 {
		c.SyncEvery = DefaultSyncEvery
	}
	if c.SegmentBytes < 1 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CompactAfterSegments < 1 {
		c.CompactAfterSegments = DefaultCompactAfterSegments
	}
	if c.CompactInterval <= 0 {
		c.CompactInterval = DefaultCompactInterval
	}
	return c
}

// Option configures a Store (see Open and live.WithPersistence).
type Option func(*Config)

// SyncEvery sets the fsync cadence: one fsync per n appended journal
// records; 1 syncs every record.
func SyncEvery(n int) Option { return func(c *Config) { c.SyncEvery = n } }

// ErrCorrupt reports a snapshot or journal whose framing or checksum does
// not hold. Decoders return errors wrapping it (use errors.Is); they never
// panic on corrupt input — the fuzz targets enforce that.
var ErrCorrupt = errors.New("persist: corrupt data")

// Stats is a point-in-time snapshot of the durability counters, surfaced
// through live.Stats.Persistence and the daemon's /v1/stats and /v1/metrics.
type Stats struct {
	// RecordsAppended counts journal records written (buffered, not
	// necessarily synced) since the store opened.
	RecordsAppended uint64 `json:"records_appended"`

	// RecordsDropped counts events the recorder dropped because its queue
	// was full — persistence backpressure never blocks a mediation.
	RecordsDropped uint64 `json:"records_dropped"`

	// AppendErrors counts records lost to journal write errors (disk
	// full, I/O error).
	AppendErrors uint64 `json:"append_errors"`

	// Syncs counts journal fsyncs.
	Syncs uint64 `json:"syncs"`

	// SealedSegments is the number of closed journal segments currently
	// on disk (compaction folds them into the next snapshot).
	SealedSegments int `json:"sealed_segments"`

	// ActiveSegment is the sequence number of the segment being appended
	// to.
	ActiveSegment uint64 `json:"active_segment"`

	// SnapshotsWritten counts snapshots written since the store opened
	// (the final Close flush included).
	SnapshotsWritten uint64 `json:"snapshots_written"`

	// Compactions counts background compactions (snapshots written to
	// fold sealed segments, excluding the Close flush).
	Compactions uint64 `json:"compactions"`

	// QueueDepth is the recorder queue's current backlog.
	QueueDepth int `json:"queue_depth"`

	// Restore describes what the boot-time restore recovered.
	Restore RestoreStats `json:"restore"`
}

// RestoreStats describes one boot-time restore.
type RestoreStats struct {
	// SnapshotLoaded reports whether a snapshot was found and decoded.
	SnapshotLoaded bool `json:"snapshot_loaded"`

	// Consumers and Providers count the satisfaction trackers restored
	// from the snapshot.
	Consumers int `json:"consumers"`
	Providers int `json:"providers"`

	// ReplayedRecords counts the journal records replayed over the
	// snapshot.
	ReplayedRecords int `json:"replayed_records"`

	// TornTail reports that the final journal record was torn (a crash
	// mid-write) and replay stopped cleanly before it.
	TornTail bool `json:"torn_tail"`
}
