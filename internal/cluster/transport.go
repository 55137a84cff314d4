package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"sbqa/internal/persist"
)

// transport is the intra-cluster HTTP client: heartbeat probes and WAL
// segment transfers. Forwarded client traffic does not pass through
// here — it rides the peer links (link.go).
type transport struct {
	client *http.Client
	self   string
}

// probe checks a peer's health endpoint and measures round-trip time.
// Any non-200 answer counts as a failure: a peer that is up but not
// ready (still restoring its journal) must not receive forwards yet.
func (t *transport) probe(timeout time.Duration, addr string) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+HealthzPath, nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	return time.Since(start), nil
}

// segmentsURL builds the replication endpoint for an origin on addr.
func segmentsURL(addr, origin string) string {
	return addr + SegmentsPath + "?origin=" + url.QueryEscape(origin)
}

// heldSegments asks a follower which of our segments it already holds,
// so a restarted owner does not re-ship the whole journal.
func (t *transport) heldSegments(ctx context.Context, addr string) ([]uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, segmentsURL(addr, t.self), nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("held segments: %s", resp.Status)
	}
	var out struct {
		Seqs []uint64 `json:"seqs"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return nil, err
	}
	return out.Seqs, nil
}

// shipSegment streams one sealed segment to a follower. The body is
// the raw journal segment; the follower validates before storing, so a
// 200 means the bytes landed intact.
func (t *transport) shipSegment(ctx context.Context, addr string, seq uint64, body io.Reader, size int64) error {
	u := segmentsURL(addr, t.self) + "&seq=" + strconv.FormatUint(seq, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("ship segment %d: %s: %s", seq, resp.Status, msg)
	}
	return nil
}

// acceptSegmentFile lands one segment shipped by origin in dir: stream to a
// temporary file, validate framing/checksums/header-seq, then rename
// into the canonical segment name. The rename makes acceptance atomic
// — a reader never sees a half-written replica — and re-shipping an
// already-held segment is a silent success. refused says the upload is at
// fault, in words that can go back to the sender (origin and seq, never a
// local path); err that this node failed to store it.
func acceptSegmentFile(dir, origin string, seq uint64, body io.Reader) (refused, err error) {
	dst := persist.SegmentFilePath(dir, seq)
	if _, err := os.Stat(dst); err == nil {
		io.Copy(io.Discard, body)
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, "incoming-*.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, body); err != nil {
		tmp.Close()
		var local *fs.PathError // tmp.Write failed; a body never fails with one
		if errors.As(err, &local) {
			return nil, err
		}
		return fmt.Errorf("cluster: receiving segment %d from %q: %v", seq, origin, err), nil
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	gotSeq, _, err := persist.ValidateSegmentFile(tmp.Name())
	switch {
	case errors.Is(err, persist.ErrCorrupt):
		return fmt.Errorf("cluster: segment %d from %q failed validation: %w", seq, origin, err), nil
	case err != nil:
		return nil, err
	case gotSeq != seq:
		return fmt.Errorf("cluster: segment from %q says seq %d in its header, the transfer says %d", origin, gotSeq, seq), nil
	}
	return nil, os.Rename(tmp.Name(), dst)
}

// statFile returns a file's size, for lag and replica accounting.
func statFile(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
