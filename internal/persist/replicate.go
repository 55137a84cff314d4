package persist

// Replication-side helpers: a cluster follower stores WAL segments shipped
// by the owner of a consumer range as plain segment files in a per-origin
// directory, and replays them — filtered to the ranges it actually takes
// over — into its live satisfaction registry when the origin node dies.
// The files reuse the exact journal segment format, so a shipped replica is
// byte-identical to the owner's sealed segment (the cluster acceptance test
// asserts this bit-level) and the same decoder serves both restore paths.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sbqa/internal/satisfaction"
)

// maxReplicaSegment bounds what one shipped segment may grow to; segments
// rotate at a few MiB, so far below this.
const maxReplicaSegment = 256 << 20

// ScanSegmentDir lists the journal segment sequence numbers present in dir,
// sorted ascending. A missing directory is an empty result, not an error.
func ScanSegmentDir(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), segmentPrefix, segmentSuffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// LandSegmentChunk stores one chunk of journal segment seq, shipped by the
// node whose replica directory dir is. A transfer is a run of chunks in
// order: the one at offset 0 starts incoming-<seq>.tmp afresh, each next one
// must begin where the file ends, and the last publishes the file the way
// the Store publishes its own — fsync, validate (framing, checksums, header
// seq), rename to the segment's canonical name, fsync dir — after creating
// dir and its missing parents durably. A segment already held is accepted
// silently, so shipping is idempotent.
//
// refused reports a chunk that is itself at fault, in words that name no
// path: the receiver answers the sender with it. err reports this node
// failing to store a good chunk. A refused, failed or last chunk ends the
// transfer: after it no incoming file is left in dir.
func LandSegmentChunk(dir string, seq, offset uint64, data []byte, last bool) (refused, err error) {
	defer func() {
		if refused == nil && err == nil && !last {
			return // a transfer in progress
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "incoming-") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}()
	if _, err := os.Stat(SegmentFilePath(dir, seq)); err == nil {
		return nil, nil
	}
	if err := mkdirDurable(dir); err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, fmt.Sprintf("incoming-%016x.tmp", seq))
	flag := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if offset == 0 {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(tmp, flag, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	switch {
	case err != nil:
	case uint64(fi.Size()) != offset:
		refused = fmt.Errorf("a chunk at offset %d, where %d bytes have arrived", offset, fi.Size())
	case offset+uint64(len(data)) > maxReplicaSegment:
		refused = fmt.Errorf("%d bytes, past the %d a segment may hold", offset+uint64(len(data)), maxReplicaSegment)
	default:
		if _, err = f.Write(data); err == nil && last {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if refused != nil || err != nil || !last {
		return refused, err
	}
	got, _, err := validateSegmentFile(tmp)
	switch {
	case errors.Is(err, ErrCorrupt):
		return fmt.Errorf("failed validation: %w", err), nil
	case err != nil:
		return nil, err
	case got != seq:
		return fmt.Errorf("says seq %d in its header", got), nil
	}
	if err := os.Rename(tmp, SegmentFilePath(dir, seq)); err != nil {
		return nil, err
	}
	syncDir(dir)
	return nil, nil
}

// mkdirDurable creates dir and whatever parents it lacks, fsyncing the
// parent of each directory it makes, so a segment landed in dir is still
// reachable after a crash.
func mkdirDurable(dir string) error {
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		return err
	}
	parent := filepath.Dir(dir)
	if err := mkdirDurable(parent); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !os.IsExist(err) {
		return err
	}
	syncDir(parent)
	return nil
}

// validateSegmentFile reads the whole segment at path, verifying framing
// and checksums, and returns its header sequence number and record count.
// Unlike restore, it tolerates nothing: a shipped segment was sealed and
// synced by the owner before shipping, so any torn record means the
// transfer (or the sender) is broken and the replica must be rejected. That
// rejection wraps ErrCorrupt and does not name path — the receiver answers
// the sender with it, and path is the receiver's own temp file; failing to
// open path is an *fs.PathError like any other.
func validateSegmentFile(path string) (seq uint64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	seq, err = readSegmentFrom(f, func(*Record) error {
		records++
		return nil
	})
	return seq, records, err
}

// ReplayDir replays every journal segment under dir, ascending by sequence
// number, applying only the records keep accepts into reg. This is the
// failover path: the new owner of a dead node's consumer range replays the
// shipped segments with keep filtering to the consumers the ring now
// assigns to it. A torn record is tolerated only at the tail of the final
// segment (mirroring the boot restore); shipped segments are validated on
// receipt, so hitting one here means the replica directory itself was
// damaged after landing.
func ReplayDir(dir string, keep func(*Record) bool, reg *satisfaction.Registry) (replayed int, err error) {
	seqs, err := ScanSegmentDir(dir)
	if err != nil {
		return 0, fmt.Errorf("persist: scanning replica dir: %w", err)
	}
	for i, seq := range seqs {
		_, err := readSegment(SegmentFilePath(dir, seq), func(rec *Record) error {
			if keep == nil || keep(rec) {
				rec.Apply(reg)
				replayed++
			}
			return nil
		})
		if err != nil {
			if errors.Is(err, errTorn) && i == len(seqs)-1 {
				return replayed, nil
			}
			return replayed, fmt.Errorf("persist: replica replay: %w", err)
		}
	}
	return replayed, nil
}
