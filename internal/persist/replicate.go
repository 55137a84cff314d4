package persist

// Replication-side helpers: a cluster follower stores WAL segments shipped
// by the owner of a consumer range as plain segment files in a per-origin
// directory, and replays them — filtered to the ranges it actually takes
// over — into its live satisfaction registry when the origin node dies.
// The files reuse the exact journal segment format, so a shipped replica is
// byte-identical to the owner's sealed segment (the cluster acceptance test
// asserts this bit-level) and the same decoder serves both restore paths.

import (
	"fmt"
	"os"
	"sort"

	"sbqa/internal/satisfaction"
)

// SegmentFilePath returns the canonical file name of journal segment seq
// under dir — the name the Store itself uses, so shipped replicas mirror
// the owner's directory layout.
func SegmentFilePath(dir string, seq uint64) string {
	return segmentPath(dir, seq)
}

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

// ValidateSegmentFile reads the whole segment at path, verifying framing
// and checksums, and returns its header sequence number and record count.
// Unlike restore, it tolerates nothing: a shipped segment was sealed and
// synced by the owner before shipping, so any torn record means the
// transfer (or the sender) is broken and the replica must be rejected. That
// rejection wraps ErrCorrupt and does not name path — the receiver answers
// the sender with it, and path is the receiver's own temp file; failing to
// open path is an *fs.PathError like any other.
func ValidateSegmentFile(path string) (seq uint64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	seq, err = readSegmentFrom(f, func(*Record) error {
		records++
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return seq, records, nil
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
		_, err := readSegment(segmentPath(dir, seq), func(rec *Record) error {
			if keep == nil || keep(rec) {
				rec.Apply(reg)
				replayed++
			}
			return nil
		})
		if err != nil {
			if isTorn(err) && i == len(seqs)-1 {
				return replayed, nil
			}
			return replayed, fmt.Errorf("persist: replica replay: %w", err)
		}
	}
	return replayed, nil
}
