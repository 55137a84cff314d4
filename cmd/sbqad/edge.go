package main

// The edge's working memory and its codec. A submit should allocate for the
// query — the ticket, the Allocation — and not for the plumbing around it,
// so a request borrows its buffers from one pool, the flat document every
// client sends is recognised without reflection, and the one shape every
// submit answers with, like the stats document, is appended by hand. The
// standard library stays the reference for both directions: decodeQuery
// declines whatever it is not sure of and json.Unmarshal decides, and
// answerQuery and answerStats are held byte-for-byte to json.Encoder by test.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sbqa"
	"sbqa/internal/satisfaction"
)

// scratch is what one request borrows from the edge: the body it read, the
// answer its core leaves — status, back-off hint, response bytes — for the
// HTTP shell or the peer link to send, and the decoded submit, kept here so
// that handing its address to unmarshal boxes a pointer into the pool's
// memory, not a fresh copy. All of it is dead once the handler returns:
// nothing decoded from body may alias it (decodeQuery interns or copies its
// strings, json.Unmarshal copies), and what outlives the handler copies
// first (a forward's frame is copied into the link's buffer before Forward
// returns).
type scratch struct {
	body  bytes.Buffer
	limit io.LimitedReader // over the request body; here, not allocated per read
	req   queryRequest

	status     int
	retryAfter int // Retry-After in whole seconds; 0 for none
	out        []byte

	// timer bounds a forwarded wait:"results" by its frame's budget; made at
	// first use and stopped between uses.
	timer *time.Timer
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledBuffer is the largest buffer a scratch takes back to the pool: a
// rare megabyte body must not pin a megabyte per P for the daemon's life.
const maxPooledBuffer = 64 << 10

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if sc.body.Cap() > maxPooledBuffer {
		sc.body = bytes.Buffer{}
	}
	if cap(sc.out) > maxPooledBuffer {
		sc.out = nil
	}
	scratchPool.Put(sc)
}

// errBodyTooLarge is what decode returns past maxRequestBody — the error
// http.MaxBytesReader would have produced, without the reader.
var errBodyTooLarge error = &http.MaxBytesError{Limit: maxRequestBody}

// read takes r into sc.body, whole — at most one byte past maxRequestBody
// comes off the wire before it gives up.
func (sc *scratch) read(r io.Reader) error {
	sc.limit = io.LimitedReader{R: r, N: maxRequestBody + 1}
	sc.body.Reset()
	_, err := sc.body.ReadFrom(&sc.limit)
	sc.limit.R = nil
	if err == nil && sc.body.Len() > maxRequestBody {
		err = errBodyTooLarge
	}
	return err
}

// unmarshal decodes body into v as one JSON document, so anything after the
// first value is an error, not a remainder dropped unread. A submit goes
// through the recogniser first; whatever that declines, and every other
// type, is json.Unmarshal's. A nil v leaves the bytes to the caller's own
// parser.
func unmarshal(body []byte, v any) error {
	switch q := v.(type) {
	case nil:
		return nil
	case *queryRequest:
		*q = queryRequest{}
		if decodeQuery(body, q) {
			return nil
		}
	}
	return json.Unmarshal(body, v)
}

// decode is read, then unmarshal of what was read.
func (sc *scratch) decode(r io.Reader, v any) error {
	if err := sc.read(r); err != nil {
		return err
	}
	return unmarshal(sc.body.Bytes(), v)
}

// queryFields are queryRequest's JSON names, in field order: decodeQuery
// switches on the index.
var queryFields = [...]string{"consumer", "class", "n", "work", "wait", "qos", "deadline_ms"}

// decodeQuery recognises the document every client sends — one flat object
// of queryRequest's members under their exact lower-case names, integers
// written as integers, strings free of escapes and of anything outside
// ASCII, any other member a scalar — and fills q exactly as json.Unmarshal
// would. It reports false, leaving q untouched, for everything else: a key
// in another case (which encoding/json would still bind to the field), a
// duplicate, null, nesting, a float where an integer goes, a number strconv
// refuses. False is never an answer, only "ask json.Unmarshal", so the
// recogniser may be as narrow as it likes but must never accept what the
// standard library rejects nor fill a field differently: syntax is left to
// json.Valid (a scanner, no reflection, nothing allocated), conversion to
// the strconv calls encoding/json makes, and FuzzDecodeQueryMatchesStdlib
// holds the rest to that.
func decodeQuery(b []byte, q *queryRequest) bool {
	if !json.Valid(b) {
		return false
	}
	// From here b is one JSON value, so a token ends where a delimiter
	// begins and no index below can run off the end.
	var req queryRequest
	var seen uint
	i := skipSpace(b, 0)
	if b[i] != '{' {
		return false
	}
	for i = skipSpace(b, i+1); b[i] != '}'; i = skipSpace(b, i) {
		key, j := plainString(b, i)
		if j < 0 {
			return false
		}
		i = skipSpace(b, skipSpace(b, j)+1) // over the colon
		field := -1
		for f, name := range queryFields {
			if string(key) == name {
				field = f
				break
			}
		}
		if field >= 0 {
			if seen&(1<<field) != 0 {
				return false
			}
			seen |= 1 << field
		} else if slices.ContainsFunc(queryFields[:], func(name string) bool { return strings.EqualFold(string(key), name) }) {
			return false // not a name of ours, but encoding/json would bind it
		}
		var tok []byte
		switch b[i] {
		case '{', '[':
			return false
		case '"':
			if tok, j = plainString(b, i); j < 0 {
				return false
			}
		default:
			for j = i; strings.IndexByte(",} \t\n\r", b[j]) < 0; j++ {
			}
			tok = b[i:j]
		}
		if field >= 0 && (b[i] == '"') != (field == 4 || field == 5) {
			return false // a string where a number goes, or the reverse
		}
		var err error
		switch field { // -1, not a member of the request, is skipped
		case 0:
			req.Consumer, err = strconv.Atoi(string(tok))
		case 1:
			req.Class, err = strconv.Atoi(string(tok))
		case 2:
			req.N, err = strconv.Atoi(string(tok))
		case 3:
			req.Work, err = strconv.ParseFloat(string(tok), 64)
		case 4:
			req.Wait = intern(tok, "none", "allocation", "results")
		case 5:
			req.QoS = intern(tok, "interactive", "batch", "background")
		case 6:
			req.DeadlineMS, err = strconv.ParseFloat(string(tok), 64)
		}
		if err != nil {
			return false
		}
		if i = skipSpace(b, j); b[i] == ',' {
			i++
		}
	}
	*q = req
	return true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString returns the contents of the string literal that opens at b[i]
// and the index after its closing quote, or -1 when it holds anything
// json.Unmarshal would not copy through as is: an escape or a byte outside
// ASCII.
func plainString(b []byte, i int) ([]byte, int) {
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1
		case c == '\\' || c >= 0x80:
			return nil, -1
		}
	}
	return nil, -1
}

// intern returns val as a string without allocating when it is one of the
// values expected there, and as a copy otherwise — never as a view of the
// pooled body.
func intern(val []byte, known ...string) string {
	for _, k := range known {
		if string(val) == k {
			return k
		}
	}
	return string(val)
}

// jsonContentType is the Content-Type value of every JSON response, shared:
// a header map takes the slice as is.
var jsonContentType = []string{"application/json"}

// answer leaves v, encoded as json.Encoder writes it, as the response.
func (sc *scratch) answer(status int, v any) {
	buf := bytes.NewBuffer(sc.out[:0])
	_ = json.NewEncoder(buf).Encode(v) // the maps and structs of this package always encode
	sc.status, sc.retryAfter, sc.out = status, 0, buf.Bytes()
}

func (sc *scratch) answerError(status int, err error) {
	sc.answer(status, map[string]string{"error": err.Error()})
}

// send writes the answer a core left in sc.
func (sc *scratch) send(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	if sc.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(sc.retryAfter))
	}
	w.WriteHeader(sc.status)
	_, _ = w.Write(sc.out) // a client that has gone is nobody's error
}

// answerQuery answers a submit: the fixed queryResponse shape
// appended into the scratch, byte for byte what json.Encoder writes for it
// (omitempty members, HTML-safe string escaping, the trailing newline), with
// the two members that are not plain integers left to json.Marshal — a
// string always marshals, and a latency is a Duration over a constant, so
// neither can fail.
func (sc *scratch) answerQuery(status int, resp *queryResponse) {
	out := append(sc.out[:0], `{"query_id":`...)
	out = strconv.AppendInt(out, resp.QueryID, 10)
	out = appendProviders(out, `,"selected":[`, resp.Selected)
	out = appendProviders(out, `,"proposed":[`, resp.Proposed)
	if len(resp.Results) > 0 {
		results, _ := json.Marshal(resp.Results)
		out = append(append(out, `,"results":`...), results...)
	}
	if resp.Error != "" {
		msg, _ := json.Marshal(resp.Error)
		out = append(append(out, `,"error":`...), msg...)
	}
	sc.status, sc.retryAfter, sc.out = status, 0, append(out, "}\n"...)
}

// appendProviders appends one omitempty member holding a list of IDs.
func appendProviders(out []byte, open string, ids []sbqa.ProviderID) []byte {
	if len(ids) == 0 {
		return out
	}
	out = append(out, open...)
	for i, id := range ids {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(id), 10)
	}
	return append(out, ']')
}

// statsScratch is a scrape's working set (see idMember), sized by the fleet,
// never by a client. Its own pool keeps it whatever its size, for as many
// scrapes as run at once; a request's scratch stays the size of a submit.
type statsScratch struct {
	consumers []satisfaction.Reading[sbqa.ConsumerID]
	providers []satisfaction.Reading[sbqa.ProviderID]
	members   []idMember
	arena     []byte
}

var statsPool = sync.Pool{New: func() any { return new(statsScratch) }}

// answerStats answers GET /v1/stats from the engine's counters, the registry
// readings in ss.consumers and ss.providers, and the gateway's own two
// counters: byte for byte what json.Encoder writes for the statsResponse
// holding them, with the brownout level taken from shard 0. Every member is
// a number appended in field order but the rare persistence block, left to
// json.Marshal (numbers and bools: it cannot fail). The values are finite, as
// the engine keeps them; encoding/json would refuse to write a NaN at all.
func (sc *scratch) answerStats(ss *statsScratch, st *sbqa.EngineStats, eventsDropped, admissionRejected uint64) {
	out := append(sc.out[:0], `{"shards":[`...)
	for i := range st.Shards {
		sh := &st.Shards[i]
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendUint(append(out, `{"mediations":`...), sh.Mediations, 10)
		out = strconv.AppendUint(append(out, `,"rejections":`...), sh.Rejections, 10)
		out = strconv.AppendUint(append(out, `,"dispatch_failures":`...), sh.DispatchFailures, 10)
		out = appendJSONFloat(append(out, `,"mean_candidates":`...), sh.MeanCandidates)
		out = strconv.AppendUint(append(out, `,"imputations":`...), sh.Imputations, 10)
		out = strconv.AppendUint(append(out, `,"intention_timeouts":`...), sh.IntentionTimeouts, 10)
		out = strconv.AppendUint(append(out, `,"policy_generation":`...), sh.PolicyGeneration, 10)
		out = strconv.AppendUint(append(out, `,"policy_swaps":`...), sh.PolicySwaps, 10)
		out = strconv.AppendInt(append(out, `,"queue_depth":`...), int64(sh.QueueDepth), 10)
		out = strconv.AppendInt(append(out, `,"queue_high_water":`...), int64(sh.QueueHighWater), 10)
		out = strconv.AppendUint(append(out, `,"queue_enqueued":`...), sh.QueueEnqueued, 10)
		out = strconv.AppendUint(append(out, `,"queue_dequeued":`...), sh.QueueDequeued, 10)
		out = strconv.AppendUint(append(out, `,"queue_shed":`...), sh.QueueShed, 10)
		out = append(out, '}')
	}
	out = strconv.AppendInt(append(out, `],"queries_submitted":`...), st.QueriesSubmitted, 10)
	out = strconv.AppendInt(append(out, `,"providers":`...), int64(st.Providers), 10)
	out = strconv.AppendInt(append(out, `,"consumers":`...), int64(st.Consumers), 10)
	for id, depth := range st.WorkerQueueDepths {
		ss.member(int64(id))
		ss.arena = strconv.AppendInt(ss.arena, int64(depth), 10)
	}
	out = ss.appendMembers(append(out, `,"worker_queue_depths":`...))
	out = strconv.AppendUint(append(out, `,"policy_generation":`...), st.PolicyGeneration, 10)
	if st.Persistence != nil {
		ps, _ := json.Marshal(st.Persistence)
		out = append(append(out, `,"persistence":`...), ps...)
	}
	for _, rd := range ss.consumers {
		ss.member(int64(rd.ID))
		ss.arena = appendJSONFloat(ss.arena, rd.Sat)
	}
	out = ss.appendMembers(append(out, `,"satisfaction":{"consumers":`...))
	for _, rd := range ss.providers {
		ss.member(int64(rd.ID))
		ss.arena = appendJSONFloat(ss.arena, rd.Sat)
	}
	out = ss.appendMembers(append(out, `,"providers":`...))
	out = strconv.AppendUint(append(out, `},"events_dropped":`...), eventsDropped, 10)
	out = strconv.AppendUint(append(out, `,"admission_rejected":`...), admissionRejected, 10)
	out = strconv.AppendInt(append(out, `,"brownout":`...), int64(st.Shards[0].QoS.Brownout), 10)
	sc.status, sc.retryAfter, sc.out = http.StatusOK, 0, append(out, "}\n"...)
}

// idMember is one member of an object keyed by participant ID, formatted
// into a statsScratch's arena: the key's digits from at, the value from sep
// to where the next member begins.
type idMember struct{ at, sep, end int }

// member starts a member keyed id in the arena; the caller appends its value
// there before starting the next.
func (ss *statsScratch) member(id int64) {
	at := len(ss.arena)
	ss.arena = strconv.AppendInt(ss.arena, id, 10)
	ss.members = append(ss.members, idMember{at: at, sep: len(ss.arena)})
}

// appendMembers appends the members started since the last call as one
// object and empties the arena for the next. The keys are sorted the way
// encoding/json sorts a map's: as the decimal strings they are, byte by byte
// — "-3" < "10" < "9" — not as numbers.
func (ss *statsScratch) appendMembers(out []byte) []byte {
	arena, ms := ss.arena, ss.members
	for i, end := len(ms)-1, len(arena); i >= 0; i-- {
		ms[i].end, end = end, ms[i].at
	}
	slices.SortFunc(ms, func(a, b idMember) int { return bytes.Compare(arena[a.at:a.sep], arena[b.at:b.sep]) })
	// Quotes, colon and comma are four bytes a member: one growth at most.
	out = append(slices.Grow(out, len(arena)+4*len(ms)+1), '{')
	for i, m := range ms {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(append(append(out, '"'), arena[m.at:m.sep]...), `":`...)
		out = append(out, arena[m.sep:m.end]...)
	}
	ss.arena, ss.members = arena[:0], ms[:0]
	return append(out, '}')
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'f' form unless |f| is below 1e-6 or at
// or above 1e21, then in 'e' form with a one-digit negative exponent written
// without its leading zero (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
