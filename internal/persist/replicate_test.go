package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
)

// outcomeRec builds a minimal one-provider outcome record for consumer c.
func outcomeRec(qid int64, c model.ConsumerID, p model.ProviderID) *Record {
	return &Record{Type: RecordOutcome, Outcome: OutcomeRecord{
		QueryID:  qid,
		Consumer: c,
		N:        1,
		Proposed: []model.ProviderID{p},
		CI:       []model.Intention{0.5},
		PI:       []model.Intention{0.5},
		Selected: []bool{true},
	}}
}

func TestRotateIfDirtyAndSealedSegmentStreaming(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(satisfaction.NewRegistry(10)); err != nil {
		t.Fatal(err)
	}

	// A clean active segment does not rotate: no empty-file accretion.
	if rotated, err := st.RotateIfDirty(); err != nil || rotated {
		t.Fatalf("clean rotate = (%v, %v), want (false, nil)", rotated, err)
	}
	if got := st.ActiveSegmentBytes(); got != 0 {
		t.Fatalf("clean ActiveSegmentBytes = %d, want 0", got)
	}

	if err := st.Append(outcomeRec(1, 7, 3)); err != nil {
		t.Fatal(err)
	}
	if got := st.ActiveSegmentBytes(); got <= 0 {
		t.Fatalf("dirty ActiveSegmentBytes = %d, want > 0", got)
	}
	if rotated, err := st.RotateIfDirty(); err != nil || !rotated {
		t.Fatalf("dirty rotate = (%v, %v), want (true, nil)", rotated, err)
	}

	seqs := st.SealedSegmentSeqs()
	if len(seqs) != 1 {
		t.Fatalf("sealed seqs = %v, want exactly one", seqs)
	}

	// Streaming the sealed segment yields the on-disk bytes verbatim.
	rc, size, err := st.OpenSealedSegment(seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(streamed)) != size {
		t.Fatalf("streamed %d bytes, size reported %d", len(streamed), size)
	}
	disk, err := os.ReadFile(SegmentFilePath(dir, seqs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if string(streamed) != string(disk) {
		t.Fatal("streamed segment differs from on-disk bytes")
	}

	// An unsealed (active) or unknown seq is refused.
	if _, _, err := st.OpenSealedSegment(seqs[0] + 1); err == nil {
		t.Fatal("OpenSealedSegment accepted the active segment")
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed store: rotate is a quiet no-op, not an error (shutdown race).
	if rotated, err := st.RotateIfDirty(); err != nil || rotated {
		t.Fatalf("rotate after close = (%v, %v), want (false, nil)", rotated, err)
	}
}

func TestValidateSegmentFile(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(satisfaction.NewRegistry(10)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := st.Append(outcomeRec(i, model.ConsumerID(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.RotateIfDirty(); err != nil {
		t.Fatal(err)
	}
	seq := st.SealedSegmentSeqs()[0]
	st.Close()

	path := SegmentFilePath(dir, seq)
	gotSeq, records, err := validateSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq || records != 5 {
		t.Fatalf("validate = (seq %d, %d records), want (%d, 5)", gotSeq, records, seq)
	}

	// A truncated copy — a torn transfer — must be rejected, not tolerated.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := validateSegmentFile(torn); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn segment validated: %v", err)
	}
}

func TestReplayDirFiltersByConsumer(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	liveReg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	if _, err := st.Restore(liveReg); err != nil {
		t.Fatal(err)
	}

	// Interleave two consumers' outcomes across two sealed segments, plus
	// record kinds a range replay must skip (policy change, provider
	// forget).
	for i := int64(0); i < 10; i++ {
		c := model.ConsumerID(i % 2)
		rec := outcomeRec(i+1, c, model.ProviderID(i%3))
		rec.Apply(liveReg)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if err := st.Append(&Record{Type: RecordPolicyChange, PolicyGeneration: 1, PolicyJSON: []byte(`{}`)}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.RotateIfDirty(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := st.RotateIfDirty(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Replay only consumer 1's records into a fresh registry.
	got := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	replayed, err := ReplayDir(dir, func(rec *Record) bool {
		switch rec.Type {
		case RecordOutcome:
			return rec.Outcome.Consumer == 1
		case RecordForgetConsumer:
			return model.ConsumerID(rec.Forget) == 1
		default:
			return false
		}
	}, got)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 5 {
		t.Fatalf("replayed %d records, want 5", replayed)
	}
	ids := got.ConsumerIDs()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("replayed consumers = %v, want [1]", ids)
	}
	// The filtered replay reproduces the live registry's memory for the
	// kept consumer exactly.
	if a, b := got.ConsumerSatisfaction(1), liveReg.ConsumerSatisfaction(1); a != b {
		t.Fatalf("replayed δs(1) = %v, live %v", a, b)
	}
}

// TestLandRefusesMalformedPayload: a shipped segment whose framing and
// checksums hold but one of whose payloads does not parse — a bool byte
// that is neither 0 nor 1, bytes past the end of the record, an unknown
// record type — is refused, and nothing of it is left in the replica dir.
func TestLandRefusesMalformedPayload(t *testing.T) {
	var good bytes.Buffer
	if err := outcomeRec(1, 7, 3).encodePayload(&cw{w: &good}); err != nil {
		t.Fatal(err)
	}
	badBool := append([]byte(nil), good.Bytes()...)
	badBool[48] = 2 // Selected[0], after query, consumer, n, count, provider, ci, pi
	// segment frames a good outcome and then (typ, payload) under a valid
	// header, with correct checksums.
	segment := func(typ RecordType, payload []byte) []byte {
		seg := append([]byte(nil), journalMagic[:]...)
		seg = binary.LittleEndian.AppendUint16(seg, journalVersion)
		seg = binary.LittleEndian.AppendUint64(seg, 4)
		for i, p := range [][]byte{good.Bytes(), payload} {
			rec := binary.LittleEndian.AppendUint32([]byte{byte(RecordOutcome)}, uint32(len(p)))
			if i == 1 {
				rec[0] = byte(typ)
			}
			rec = append(rec, p...)
			seg = binary.LittleEndian.AppendUint32(append(seg, rec...), crc32.Checksum(rec, crcTable))
		}
		return seg
	}
	if refused, err := LandSegmentChunk(filepath.Join(t.TempDir(), "n1"), 4, 0, segment(RecordOutcome, good.Bytes()), true); refused != nil || err != nil {
		t.Fatalf("a well-formed segment: landing = (refused %v, err %v)", refused, err)
	}
	for _, tc := range []struct {
		what    string
		typ     RecordType
		payload []byte
	}{
		{"a bool byte of 2", RecordOutcome, badBool},
		{"a byte past the record", RecordOutcome, append(append([]byte(nil), good.Bytes()...), 0)},
		{"an unknown record type", RecordType(9), good.Bytes()},
	} {
		dir := filepath.Join(t.TempDir(), "n1")
		refused, err := LandSegmentChunk(dir, 4, 0, segment(tc.typ, tc.payload), true)
		if refused == nil || err != nil {
			t.Errorf("%s: landing = (refused %v, err %v), want refused", tc.what, refused, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s: the replica dir holds %d files after a refusal", tc.what, len(entries))
		}
	}
}
