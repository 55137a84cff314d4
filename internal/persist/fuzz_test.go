package persist

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
)

// FuzzSnapshotDecode: arbitrary input must either decode to a snapshot that
// re-encodes and re-decodes to the same value, or error — never panic, and
// never mis-restore silently (a decodable snapshot must round-trip).
func FuzzSnapshotDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, testSnapshot()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:9])
	f.Add(append(append([]byte(nil), valid...), 0xFF))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0x10
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must be stable under re-encode + re-decode.
		var out bytes.Buffer
		if err := EncodeSnapshot(&out, snap); err != nil {
			t.Fatalf("re-encode of decoded snapshot failed: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("decode/encode/decode unstable:\n%+v\n%+v", snap, again)
		}
		// Applying a decoded snapshot must never panic; tracker-state
		// validation may reject it, which is fine.
		_ = snap.ApplyRegistry(satisfaction.NewRegistry(satisfaction.DefaultWindow))
	})
}

// FuzzJournalReplay: a journal segment built from arbitrary bytes must
// replay or error/tear cleanly — never panic, and applying whatever records
// it yields must not corrupt a registry. Every record it yields re-encodes
// to exactly the payload bytes it was decoded from.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a valid segment's bytes.
	dir := f.TempDir()
	st, err := Open(dir, SyncEvery(1))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Restore(satisfaction.NewRegistry(10)); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(outcome(int64(i+1), 0, 1, 2)); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Append(&Record{Type: RecordPolicyChange, PolicyGeneration: 1, PolicyJSON: []byte(`{"kind":"sbqa"}`)}); err != nil {
		f.Fatal(err)
	}
	if err := st.Append(&Record{Type: RecordForgetConsumer, Forget: 0}); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _, err := st.scan()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(SegmentFilePath(dir, segs[0]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	mixedDir := f.TempDir()
	writeJournal(f, mixedDir, mixedRecords(12))
	mixed, err := os.ReadFile(SegmentFilePath(mixedDir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte{})
	f.Add([]byte("SBQAWAL1"))
	mut := append([]byte(nil), valid...)
	mut[len(mut)-6] ^= 0x01
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal-0000000000000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		reg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
		payloads := framedPayloads(data)
		var enc bytes.Buffer
		i := 0
		_, err := readSegment(path, func(rec *Record) error {
			// The decoder reuses one Record: what it hands over must be
			// exactly the record framed here, with no tail of the last one.
			enc.Reset()
			if err := rec.encodePayload(&cw{w: &enc}); err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
			if i >= len(payloads) || !bytes.Equal(enc.Bytes(), payloads[i]) {
				t.Fatalf("record %d re-encodes to %x, not the payload it was decoded from", i, enc.Bytes())
			}
			i++
			rec.Apply(reg)
			return nil
		})
		_ = err // errors (including torn) are the expected outcome for noise
		// The registry must still be usable whatever was applied.
		_ = reg.ConsumerSatisfaction(model.ConsumerID(0))
		_, _ = CaptureRegistry(reg)
	})
}

// framedPayloads splits a segment's bytes into its records' payloads by the
// framing alone, stopping at the first incomplete record.
func framedPayloads(data []byte) [][]byte {
	var out [][]byte
	for rest := data[min(len(data), int(segmentHeaderBytes)):]; len(rest) >= 5; {
		n := uint64(binary.LittleEndian.Uint32(rest[1:5]))
		if uint64(len(rest)) < 5+n+4 {
			break
		}
		out = append(out, rest[5:5+n])
		rest = rest[5+n+4:]
	}
	return out
}
