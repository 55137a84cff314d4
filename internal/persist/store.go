package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sbqa/internal/satisfaction"
)

// Store owns one state directory: the active journal segment, the sealed
// segments awaiting compaction, and the snapshot files. A Store is created
// with Open, must Restore exactly once before any Append, and is closed
// with Close (graceful; syncs) or Abort (crash emulation; drops buffered
// writes).
//
// Append/Sync are intended for a single writer goroutine (the Recorder's),
// but every method is mutex-guarded so rotation-for-snapshot and stats
// reads may come from other goroutines.
type Store struct {
	dir string
	cfg Config

	mu        sync.Mutex
	w         *segmentWriter // active segment; nil before Restore and after Close
	activeSeq uint64
	sealed    []uint64 // sorted sealed segment seqs currently on disk
	sinceSync int
	restored  bool
	closed    bool

	appended  atomic.Uint64
	syncs     atomic.Uint64
	snapshots atomic.Uint64
	compacted atomic.Uint64

	restoreStats RestoreStats
}

// RestoreResult is what the boot-time restore recovered; the engine applies
// it on top of its freshly constructed state.
type RestoreResult struct {
	// Stats summarizes the restore for monitoring.
	Stats RestoreStats

	// NextQueryID is the recovered query ID counter: the snapshot's value
	// advanced past every replayed outcome's query ID.
	NextQueryID int64

	// PolicyGeneration and PolicyJSON are the latest recovered policy
	// (the snapshot's, superseded by any replayed policy-change record).
	// PolicyJSON is nil when the persisted engine ran without a
	// declarative policy.
	PolicyGeneration uint64
	PolicyJSON       []byte

	// AllocStates are the snapshot's per-shard allocator states (nil when
	// no snapshot was loaded). They describe the snapshot moment — journal
	// replay cannot advance them, which is why crash recovery is bounded
	// rather than byte-identical.
	AllocStates [][]byte
}

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".wal"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".snap"
)

// SegmentFilePath returns the canonical file name of journal segment seq
// under dir — the name the Store itself uses, so shipped replicas mirror
// the owner's directory layout.
func SegmentFilePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segmentPrefix, seq, segmentSuffix))
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapshotPrefix, seq, snapshotSuffix))
}

// parseSeq extracts the sequence number from a store filename.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open prepares a store over dir (creating it if needed). No files are
// written until Restore opens the first active segment.
func Open(dir string, opts ...Option) (*Store, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: state dir: %w", err)
	}
	return &Store{dir: dir, cfg: cfg}, nil
}

// Dir returns the store's state directory.
func (s *Store) Dir() string { return s.dir }

// scan lists the on-disk segment and snapshot sequence numbers, sorted
// ascending.
func (s *Store) scan() (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), segmentPrefix, segmentSuffix); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), snapshotPrefix, snapshotSuffix); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// loadLatestSnapshot tries snapshots newest-first and returns the first
// that decodes; a corrupt newer snapshot falls back to an older one rather
// than failing the restore.
func (s *Store) loadLatestSnapshot(snaps []uint64) *Snapshot {
	for i := len(snaps) - 1; i >= 0; i-- {
		f, err := os.Open(snapshotPath(s.dir, snaps[i]))
		if err != nil {
			continue
		}
		snap, err := DecodeSnapshot(f)
		f.Close()
		if err == nil {
			return snap
		}
	}
	return nil
}

// Restore loads the newest decodable snapshot into reg, replays the journal
// tail over it (tolerating a torn record at the very end), and opens a
// fresh active segment for subsequent appends. It must be called exactly
// once, before the Recorder starts. An empty state directory restores
// nothing and succeeds.
func (s *Store) Restore(reg *satisfaction.Registry) (*RestoreResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.restored {
		return nil, fmt.Errorf("persist: store already restored")
	}
	segs, snaps, err := s.scan()
	if err != nil {
		return nil, fmt.Errorf("persist: scanning state dir: %w", err)
	}

	res := &RestoreResult{}
	snap := s.loadLatestSnapshot(snaps)
	if snap == nil && len(snaps) > 0 {
		// Snapshot files exist but none decodes. Proceeding would silently
		// resurrect a near-empty registry (compaction pruned the journal
		// history the snapshots covered) and cement the loss at the next
		// snapshot — fail loudly instead; the operator decides whether to
		// wipe the state dir and start cold.
		return nil, fmt.Errorf("%w: %d snapshot file(s) present but none decodes; refusing a silent cold restore (wipe %s to start over)", ErrCorrupt, len(snaps), s.dir)
	}
	firstSeg := uint64(0)
	if snap != nil {
		if err := snap.ApplyRegistry(reg); err != nil {
			return nil, err
		}
		res.Stats.SnapshotLoaded = true
		res.Stats.Consumers = len(snap.Consumers)
		res.Stats.Providers = len(snap.Providers)
		res.NextQueryID = snap.NextQueryID
		res.PolicyGeneration = snap.PolicyGeneration
		res.PolicyJSON = snap.PolicyJSON
		res.AllocStates = snap.AllocStates
		firstSeg = snap.FirstSegment
	}

	// Replay the journal tail: every segment the snapshot does not cover,
	// in sequence order. A torn record is tolerated only at the tail of
	// the final segment — anywhere else it is corruption.
	maxSeq := uint64(0)
	for i, seq := range segs {
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq < firstSeg {
			continue
		}
		_, err := readSegment(SegmentFilePath(s.dir, seq), func(rec *Record) error {
			rec.Apply(reg)
			res.Stats.ReplayedRecords++
			switch rec.Type {
			case RecordOutcome:
				if rec.Outcome.QueryID > res.NextQueryID {
					res.NextQueryID = rec.Outcome.QueryID
				}
			case RecordPolicyChange:
				if rec.PolicyGeneration >= res.PolicyGeneration {
					res.PolicyGeneration = rec.PolicyGeneration
					res.PolicyJSON = rec.PolicyJSON
				}
			}
			return nil
		})
		if err != nil {
			if errors.Is(err, errTorn) && i == len(segs)-1 {
				res.Stats.TornTail = true
				break
			}
			return nil, fmt.Errorf("persist: journal replay: %w", err)
		}
	}

	// Appends go to a fresh segment — a torn tail is never appended to.
	s.activeSeq = maxSeq + 1
	w, err := createSegment(SegmentFilePath(s.dir, s.activeSeq), s.activeSeq)
	if err != nil {
		return nil, fmt.Errorf("persist: opening journal segment: %w", err)
	}
	syncDir(s.dir)
	s.w = w
	for _, seq := range segs {
		s.sealed = append(s.sealed, seq)
	}
	s.restored = true
	s.restoreStats = res.Stats
	return res, nil
}

// Append writes one record to the active segment, rotating past the size
// threshold and fsyncing on the configured cadence.
func (s *Store) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(rec)
}

// AppendBatch appends a burst of records under a single lock acquisition —
// the recorder's writer goroutine drains its queue in bursts, so a busy
// engine pays one mutex round trip per burst instead of per record. Each
// record gets exactly the per-record accounting, sync cadence, and rotation
// behavior of Append called in a loop; the returned count is the number of
// records that failed.
func (s *Store) AppendBatch(recs []*Record) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	failed := 0
	for _, rec := range recs {
		if err := s.appendLocked(rec); err != nil {
			failed++
		}
	}
	return failed
}

func (s *Store) appendLocked(rec *Record) error {
	if s.w == nil {
		return fmt.Errorf("persist: store not open for appends")
	}
	if err := s.w.append(rec); err != nil {
		return err
	}
	s.appended.Add(1)
	s.sinceSync++
	if s.sinceSync >= s.cfg.SyncEvery {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if s.w.bytes >= s.cfg.SegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// Sync flushes and fsyncs the active segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if err := s.w.sync(); err != nil {
		return err
	}
	s.syncs.Add(1)
	s.sinceSync = 0
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() error {
	if err := s.w.close(); err != nil {
		return err
	}
	s.syncs.Add(1)
	s.sinceSync = 0
	s.sealed = append(s.sealed, s.activeSeq)
	s.activeSeq++
	w, err := createSegment(SegmentFilePath(s.dir, s.activeSeq), s.activeSeq)
	if err != nil {
		s.w = nil
		return err
	}
	syncDir(s.dir)
	s.w = w
	return nil
}

// SealedSegments reports how many closed segments await compaction.
func (s *Store) SealedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed)
}

// SealedSegmentSeqs returns the sequence numbers of the sealed segments
// currently on disk, sorted ascending. The cluster replicator ships these
// to follower nodes; a seq may disappear between this call and
// OpenSealedSegment when compaction prunes it.
func (s *Store) SealedSegmentSeqs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.sealed...)
}

// OpenSealedSegment opens one sealed segment for streaming (shipping to a
// replication follower) and returns its size. The caller must close the
// reader. Returns an error when seq is not a sealed segment on disk —
// including when compaction pruned it between SealedSegmentSeqs and this
// call, which the replicator treats as "superseded, skip".
func (s *Store) OpenSealedSegment(seq uint64) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	sealed := false
	for _, have := range s.sealed {
		if have == seq {
			sealed = true
			break
		}
	}
	s.mu.Unlock()
	if !sealed {
		return nil, 0, fmt.Errorf("persist: segment %d is not sealed", seq)
	}
	f, err := os.Open(SegmentFilePath(s.dir, seq))
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// ActiveSegmentBytes reports how many payload bytes (beyond the segment
// header) sit in the active segment — the journal tail that has not been
// sealed, and therefore cannot have been shipped to a replication follower
// yet. Zero for a freshly rotated (or closed) store.
func (s *Store) ActiveSegmentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0
	}
	return s.w.bytes - segmentHeaderBytes
}

// RotateIfDirty seals the active segment when it holds at least one record,
// opening a fresh one, and reports whether it rotated. The cluster
// replicator calls this on its shipping cadence so the journal tail becomes
// sealed — and thus shippable — on a bounded clock rather than only at the
// SegmentBytes threshold. A clean (header-only) active segment is left
// alone, so an idle node does not accrete empty segment files. Returns
// false with no error on a closed store (shutdown races are not failures).
func (s *Store) RotateIfDirty() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil || s.w.bytes <= segmentHeaderBytes {
		return false, nil
	}
	if err := s.rotateLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// RotateForSnapshot seals the active segment and returns the new active
// sequence number — the FirstSegment of the snapshot about to be written.
// The caller must have quiesced appends (the engine holds every shard lock
// and has drained the recorder), so the sealed segments plus the snapshot
// exactly partition the record history.
func (s *Store) RotateForSnapshot() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0, fmt.Errorf("persist: store not open")
	}
	if err := s.rotateLocked(); err != nil {
		return 0, err
	}
	return s.activeSeq, nil
}

// WriteSnapshot encodes snap atomically (temp file, fsync, rename, dir
// fsync) and prunes everything it supersedes: journal segments below
// snap.FirstSegment and older snapshot files. compaction marks the write as
// a background compaction (for the counters) rather than a Close flush.
func (s *Store) WriteSnapshot(snap *Snapshot, compaction bool) error {
	tmp, err := os.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if err := EncodeSnapshot(tmp, snap); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	final := snapshotPath(s.dir, snap.FirstSegment)
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	syncDir(s.dir)
	s.snapshots.Add(1)
	if compaction {
		s.compacted.Add(1)
	}

	// Prune what the snapshot supersedes. Removal failures are harmless:
	// restore replays only segments >= FirstSegment, so a stale file that
	// survives pruning is skipped, never double-applied.
	s.mu.Lock()
	kept := s.sealed[:0]
	for _, seq := range s.sealed {
		if seq < snap.FirstSegment {
			os.Remove(SegmentFilePath(s.dir, seq))
			continue
		}
		kept = append(kept, seq)
	}
	s.sealed = kept
	s.mu.Unlock()
	_, snaps, err := s.scan()
	if err == nil {
		for _, seq := range snaps {
			if seq < snap.FirstSegment {
				os.Remove(snapshotPath(s.dir, seq))
			}
		}
	}
	syncDir(s.dir)
	return nil
}

// Close syncs and closes the active segment. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.w == nil {
		s.closed = true
		return nil
	}
	s.closed = true
	err := s.w.close()
	s.w = nil
	return err
}

// Abort closes the store dropping everything buffered since the last sync —
// the crash-emulation path used by tests (and by nothing else).
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.w == nil {
		s.closed = true
		return
	}
	s.closed = true
	s.w.abort()
	s.w = nil
}

// storeStats fills the store-owned half of Stats.
func (s *Store) storeStats(st *Stats) {
	st.RecordsAppended = s.appended.Load()
	st.Syncs = s.syncs.Load()
	st.SnapshotsWritten = s.snapshots.Load()
	st.Compactions = s.compacted.Load()
	s.mu.Lock()
	st.SealedSegments = len(s.sealed)
	st.ActiveSegment = s.activeSeq
	st.Restore = s.restoreStats
	s.mu.Unlock()
}

// syncDir fsyncs a directory so renames and creates within it are durable;
// best-effort on platforms where directories cannot be fsynced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
