package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

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
// tag) through c.
func (r *Record) encodePayload(c *cw) error {
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

// reset makes r an empty record of type t whose outcome slices keep their
// backing arrays, to be appended into.
func (r *Record) reset(t RecordType) {
	o := &r.Outcome
	*r = Record{Type: t, Outcome: OutcomeRecord{Proposed: o.Proposed[:0], CI: o.CI[:0],
		PI: o.PI[:0], Selected: o.Selected[:0], Candidates: o.Candidates[:0]}}
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
	bytes int64
	// encBuf and enc, its writer, are reused across appends, so an append
	// allocates nothing.
	encBuf bytes.Buffer
	enc    cw
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
	w := &segmentWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	w.enc.w = &w.encBuf
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

// append frames and buffers one record: type, length, payload and checksum
// are assembled in encBuf and handed to the bufio.Writer in one write.
func (w *segmentWriter) append(rec *Record) error {
	w.encBuf.Reset()
	w.enc.u8(byte(rec.Type))
	w.enc.u32(0) // the payload length, filled in once it is known
	if err := rec.encodePayload(&w.enc); err != nil {
		return err
	}
	framed := w.encBuf.Bytes()
	if len(framed)-5 > maxRecordPayload {
		return fmt.Errorf("persist: record payload %d bytes exceeds limit", len(framed)-5)
	}
	binary.LittleEndian.PutUint32(framed[1:], uint32(len(framed)-5))
	w.enc.u32(crc32.Checksum(framed, crcTable))
	if _, err := w.bw.Write(w.encBuf.Bytes()); err != nil {
		return err
	}
	w.bytes += int64(w.encBuf.Len())
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
//
// The record handed to fn is valid only for the duration of the call: one
// segmentDecoder serves the whole segment and decodes every record into the
// same Record. Blob fields (PolicyJSON) are freshly allocated per record and
// may be kept.
func readSegmentFrom(r io.Reader, fn func(*Record) error) (seq uint64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	d := &segmentDecoder{c: cr{r: br}}
	if _, err := io.ReadFull(br, d.magic[:]); err != nil {
		// Incomplete header: a crash tore the segment before its (synced)
		// header landed — tolerable at the journal tail, like any torn
		// record. A complete-but-wrong header below is real corruption.
		return 0, errTorn
	}
	if d.magic != journalMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, d.magic[:])
	}
	if v := d.c.u16(); d.c.err == nil && v != journalVersion {
		return 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	if seq = d.c.u64(); d.c.err != nil {
		return 0, errTorn
	}
	for {
		// io.EOF: not one byte of another record, a clean end of segment.
		// Anything short of a whole frame, payload and checksum is torn.
		if _, err := io.ReadFull(br, d.frame[:]); err == io.EOF {
			return seq, nil
		} else if err != nil {
			return seq, errTorn
		}
		n := binary.LittleEndian.Uint32(d.frame[1:])
		if n > maxRecordPayload {
			return seq, errTorn
		}
		if uint32(cap(d.payload)) < n+4 {
			d.payload = make([]byte, n+4)
		}
		d.payload = d.payload[:n+4]
		if _, err := io.ReadFull(br, d.payload); err != nil {
			return seq, errTorn
		}
		stored := binary.LittleEndian.Uint32(d.payload[n:])
		d.payload = d.payload[:n]
		if crc32.Update(crc32.Checksum(d.frame[:], crcTable), crcTable, d.payload) != stored {
			return seq, errTorn
		}
		if d.decode(RecordType(d.frame[0])) != nil {
			// Framing and checksum held but the payload is malformed:
			// treat like a torn record — the boundary is still intact, so
			// a tail-position tolerance applies the same way.
			return seq, errTorn
		}
		if err := fn(&d.rec); err != nil {
			return seq, err
		}
	}
}

// segmentDecoder is the reading state of one segment, allocated once per
// segment: framing scratch, a payload buffer grown to the largest record so
// far, a reader over it, and the one Record every payload decodes into.
type segmentDecoder struct {
	magic   [8]byte
	frame   [5]byte
	payload []byte // the record's payload, then room for its checksum
	pr      bytes.Reader
	c       cr
	rec     Record
}

// decode parses d.payload as a record of type t into d.rec, appending into
// the previous record's outcome slices (reset clears every field first).
// The payload must parse completely, with no bytes left over.
func (d *segmentDecoder) decode(t RecordType) error {
	d.pr.Reset(d.payload)
	c, o := &d.c, &d.rec.Outcome
	*c = cr{r: &d.pr}
	d.rec.reset(t)
	switch t {
	case RecordOutcome:
		o.QueryID = c.i64()
		o.Consumer = model.ConsumerID(c.i64())
		o.N = int(c.u32())
		n, capHint := c.count()
		o.Proposed = slices.Grow(o.Proposed, capHint)
		o.CI = slices.Grow(o.CI, capHint)
		o.PI = slices.Grow(o.PI, capHint)
		o.Selected = slices.Grow(o.Selected, capHint)
		for i := 0; i < n && c.err == nil; i++ {
			o.Proposed = append(o.Proposed, model.ProviderID(c.i64()))
			o.CI = append(o.CI, model.Intention(c.f64()))
			o.PI = append(o.PI, model.Intention(c.f64()))
			o.Selected = append(o.Selected, c.bool())
		}
		if o.HasCandidates = c.bool(); o.HasCandidates {
			nc, candHint := c.count()
			o.Candidates = slices.Grow(o.Candidates, candHint)
			for i := 0; i < nc && c.err == nil; i++ {
				o.Candidates = append(o.Candidates, model.Intention(c.f64()))
			}
		}
	case RecordForgetConsumer, RecordForgetProvider:
		d.rec.Forget = c.i64()
	case RecordPolicyChange:
		d.rec.PolicyGeneration = c.u64()
		d.rec.PolicyJSON = c.blob()
	default:
		c.fail(fmt.Errorf("%w: unknown record type %d", ErrCorrupt, t))
	}
	if c.err == nil && d.pr.Len() > 0 {
		c.fail(fmt.Errorf("%w: %d bytes past the record", ErrCorrupt, d.pr.Len()))
	}
	return c.err
}
