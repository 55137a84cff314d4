package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
)

// Journal segment format:
//
//	magic   [8]byte "SBQAWAL1"
//	version u16
//	seq     u64
//	records...
//
// Each record:
//
//	type    u8
//	len     u32    payload length
//	payload [len]byte
//	crc32c  u32    over type + len + payload
//
// A record whose frame is incomplete or whose checksum fails marks the end
// of usable data; restore tolerates that at the tail of the LAST segment (a
// crash tore the in-flight write) and treats it as corruption anywhere else.

var journalMagic = [8]byte{'S', 'B', 'Q', 'A', 'W', 'A', 'L', '1'}

// journalVersion is the current segment format version.
const journalVersion = 1

// segmentHeaderBytes is the size of the fixed segment header (magic +
// version + seq); a segment at exactly this size holds no records.
const segmentHeaderBytes = int64(len(journalMagic) + 2 + 8)

// maxRecordPayload bounds one journal record's payload; outcome records for
// even enormous proposal sets stay far below it.
const maxRecordPayload = 1 << 26

// RecordType tags one journal record.
type RecordType uint8

// The journal's record vocabulary.
const (
	// RecordOutcome is one mediation outcome — successful or a recorded
	// rejection (empty proposal set) — exactly the input
	// satisfaction.Registry.RecordAllocation consumed live.
	RecordOutcome RecordType = 1

	// RecordForgetConsumer and RecordForgetProvider are participant
	// departures: the registry dropped the participant's memory.
	RecordForgetConsumer RecordType = 2
	RecordForgetProvider RecordType = 3

	// RecordPolicyChange is an accepted policy generation (the spec JSON
	// plus its generation number).
	RecordPolicyChange RecordType = 4
)

// OutcomeRecord is one mediation outcome in replayable form: the exact
// arguments the live engine fed to Registry.RecordAllocation.
type OutcomeRecord struct {
	QueryID  int64
	Consumer model.ConsumerID
	N        int

	// Proposed, CI, PI, and Selected are position-aligned: the proposal
	// set with each provider's recorded intentions and whether it was
	// selected. All empty for a recorded rejection.
	Proposed []model.ProviderID
	CI       []model.Intention
	PI       []model.Intention
	Selected []bool

	// Candidates carries the consumer's intentions over the full candidate
	// set when the mediator analyzed it (AnalyzeBest); HasCandidates false
	// replays the nil-candidates path (the proposal stands in).
	HasCandidates bool
	Candidates    []model.Intention
}

// Apply replays the outcome into reg, reproducing the live recording.
func (o *OutcomeRecord) Apply(reg *satisfaction.Registry) {
	a := &model.Allocation{
		Query:              model.Query{ID: model.QueryID(o.QueryID), Consumer: o.Consumer, N: o.N},
		Proposed:           o.Proposed,
		ConsumerIntentions: o.CI,
		ProviderIntentions: o.PI,
	}
	for i, sel := range o.Selected {
		if sel {
			a.Selected = append(a.Selected, o.Proposed[i])
		}
	}
	var candidates []model.Intention
	if o.HasCandidates {
		candidates = o.Candidates
		if candidates == nil {
			candidates = []model.Intention{}
		}
	}
	reg.RecordAllocation(a, candidates)
}

// Record is one journal entry; which fields are meaningful depends on Type.
type Record struct {
	Type RecordType

	// Outcome is set for RecordOutcome.
	Outcome OutcomeRecord

	// Forget is the departed participant's ID for the forget records.
	Forget int64

	// PolicyGeneration and PolicyJSON are set for RecordPolicyChange.
	PolicyGeneration uint64
	PolicyJSON       []byte
}

// encodePayload serializes the record's payload (everything after the type
// tag) into buf and returns it.
func (r *Record) encodePayload(buf *bytes.Buffer) error {
	c := &cw{w: buf}
	switch r.Type {
	case RecordOutcome:
		o := &r.Outcome
		if len(o.CI) != len(o.Proposed) || len(o.PI) != len(o.Proposed) || len(o.Selected) != len(o.Proposed) {
			return fmt.Errorf("persist: outcome record misaligned (%d proposed, %d ci, %d pi, %d selected)",
				len(o.Proposed), len(o.CI), len(o.PI), len(o.Selected))
		}
		c.i64(o.QueryID)
		c.i64(int64(o.Consumer))
		c.u32(uint32(o.N))
		c.u32(uint32(len(o.Proposed)))
		for i, p := range o.Proposed {
			c.i64(int64(p))
			c.f64(float64(o.CI[i]))
			c.f64(float64(o.PI[i]))
			c.bool(o.Selected[i])
		}
		c.bool(o.HasCandidates)
		if o.HasCandidates {
			c.u32(uint32(len(o.Candidates)))
			for _, ci := range o.Candidates {
				c.f64(float64(ci))
			}
		}
	case RecordForgetConsumer, RecordForgetProvider:
		c.i64(r.Forget)
	case RecordPolicyChange:
		c.u64(r.PolicyGeneration)
		c.blob(r.PolicyJSON)
	default:
		return fmt.Errorf("persist: unknown record type %d", r.Type)
	}
	return c.err
}

// decodeRecordPayload parses one record payload of the given type.
func decodeRecordPayload(t RecordType, payload []byte) (*Record, error) {
	c := &cr{r: bytes.NewReader(payload)}
	rec := &Record{Type: t}
	switch t {
	case RecordOutcome:
		o := &rec.Outcome
		o.QueryID = c.i64()
		o.Consumer = model.ConsumerID(c.i64())
		o.N = int(c.u32())
		n, capHint := c.count()
		o.Proposed = make([]model.ProviderID, 0, capHint)
		o.CI = make([]model.Intention, 0, capHint)
		o.PI = make([]model.Intention, 0, capHint)
		o.Selected = make([]bool, 0, capHint)
		for i := 0; i < n && c.err == nil; i++ {
			o.Proposed = append(o.Proposed, model.ProviderID(c.i64()))
			o.CI = append(o.CI, model.Intention(c.f64()))
			o.PI = append(o.PI, model.Intention(c.f64()))
			o.Selected = append(o.Selected, c.bool())
		}
		if o.HasCandidates = c.bool(); o.HasCandidates {
			nc, candHint := c.count()
			o.Candidates = make([]model.Intention, 0, candHint)
			for i := 0; i < nc && c.err == nil; i++ {
				o.Candidates = append(o.Candidates, model.Intention(c.f64()))
			}
		}
	case RecordForgetConsumer, RecordForgetProvider:
		rec.Forget = c.i64()
	case RecordPolicyChange:
		rec.PolicyGeneration = c.u64()
		rec.PolicyJSON = c.blob()
	default:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, t)
	}
	if c.err != nil {
		return nil, fmt.Errorf("%w: record payload: %v", ErrCorrupt, c.err)
	}
	return rec, nil
}

// Apply replays one record into reg.
func (r *Record) Apply(reg *satisfaction.Registry) {
	switch r.Type {
	case RecordOutcome:
		r.Outcome.Apply(reg)
	case RecordForgetConsumer:
		reg.ForgetConsumer(model.ConsumerID(r.Forget))
	case RecordForgetProvider:
		reg.ForgetProvider(model.ProviderID(r.Forget))
	}
	// Policy records carry no registry state; the restorer consumes them.
}

// segmentWriter appends records to one journal segment file.
type segmentWriter struct {
	f     *os.File
	bw    *bufio.Writer
	seq   uint64
	bytes int64
	// encBuf and frame are reused across appends.
	encBuf bytes.Buffer
	frame  [5]byte
}

// createSegment opens a fresh segment file and writes its header. The
// header is flushed and fsynced immediately: a crash at any later point
// leaves a segment that parses up to its last complete record, never a
// header-less file.
func createSegment(path string, seq uint64) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &segmentWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), seq: seq}
	c := &cw{w: w.bw}
	c.write(journalMagic[:])
	c.u16(journalVersion)
	c.u64(seq)
	if c.err == nil {
		if err := w.bw.Flush(); err != nil {
			c.err = err
		} else {
			c.err = f.Sync()
		}
	}
	if c.err != nil {
		f.Close()
		return nil, c.err
	}
	w.bytes = segmentHeaderBytes
	return w, nil
}

// append frames and buffers one record.
func (w *segmentWriter) append(rec *Record) error {
	w.encBuf.Reset()
	if err := rec.encodePayload(&w.encBuf); err != nil {
		return err
	}
	payload := w.encBuf.Bytes()
	if len(payload) > maxRecordPayload {
		return fmt.Errorf("persist: record payload %d bytes exceeds limit", len(payload))
	}
	w.frame[0] = byte(rec.Type)
	w.frame[1] = byte(len(payload))
	w.frame[2] = byte(len(payload) >> 8)
	w.frame[3] = byte(len(payload) >> 16)
	w.frame[4] = byte(len(payload) >> 24)
	crc := crc32.Update(0, crcTable, w.frame[:])
	crc = crc32.Update(crc, crcTable, payload)
	if _, err := w.bw.Write(w.frame[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	c := &cw{w: w.bw}
	c.u32(crc)
	if c.err != nil {
		return c.err
	}
	w.bytes += int64(len(w.frame) + len(payload) + 4)
	return nil
}

// sync flushes the buffer and fsyncs the segment.
func (w *segmentWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// close syncs and closes the segment.
func (w *segmentWriter) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abort closes the file WITHOUT flushing the buffer — the crash-emulation
// path: everything buffered since the last sync is lost, exactly like a
// process kill.
func (w *segmentWriter) abort() { w.f.Close() }

// errTorn marks a torn (incomplete or checksum-failing) record at the point
// reading stopped. It wraps ErrCorrupt; the restorer downgrades it to a
// clean stop when it occurs at the tail of the final segment.
var errTorn = fmt.Errorf("%w: torn record", ErrCorrupt)

// readSegment streams the records of the segment file at path to fn and
// returns the segment's sequence number. Framing errors name the file.
func readSegment(path string, fn func(*Record) error) (seq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if seq, err = readSegmentFrom(f, fn); errors.Is(err, ErrCorrupt) {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return seq, err
}

// readSegmentFrom streams the records of one segment to fn. A torn record
// stops reading and returns errTorn, a complete-but-wrong header an error
// wrapping ErrCorrupt — neither names where the bytes came from, which is
// the caller's to say; fn errors abort and propagate.
func readSegmentFrom(r io.Reader, fn func(*Record) error) (seq uint64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		// Incomplete header: a crash tore the segment before its (synced)
		// header landed — tolerable at the journal tail, like any torn
		// record. A complete-but-wrong header below is real corruption.
		return 0, errTorn
	}
	if magic != journalMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, magic[:])
	}
	h := &cr{r: br}
	if v := h.u16(); h.err == nil && v != journalVersion {
		return 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	seq = h.u64()
	if h.err != nil {
		return 0, errTorn
	}
	var frame [5]byte
	for {
		if _, err := io.ReadFull(br, frame[:1]); err == io.EOF {
			return seq, nil // clean end of segment
		} else if err != nil {
			return seq, errTorn
		}
		if _, err := io.ReadFull(br, frame[1:]); err != nil {
			return seq, errTorn
		}
		payloadLen := uint32(frame[1]) | uint32(frame[2])<<8 | uint32(frame[3])<<16 | uint32(frame[4])<<24
		if payloadLen > maxRecordPayload {
			return seq, errTorn
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return seq, errTorn
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return seq, errTorn
		}
		stored := uint32(crcBuf[0]) | uint32(crcBuf[1])<<8 | uint32(crcBuf[2])<<16 | uint32(crcBuf[3])<<24
		crc := crc32.Update(0, crcTable, frame[:])
		crc = crc32.Update(crc, crcTable, payload)
		if stored != crc {
			return seq, errTorn
		}
		rec, err := decodeRecordPayload(RecordType(frame[0]), payload)
		if err != nil {
			// Framing and checksum held but the payload is malformed:
			// treat like a torn record — the boundary is still intact, so
			// a tail-position tolerance applies the same way.
			return seq, errTorn
		}
		if err := fn(rec); err != nil {
			return seq, err
		}
	}
}

// isTorn reports whether err marks a torn record (tolerable at the journal
// tail).
func isTorn(err error) bool { return errors.Is(err, errTorn) }
