// Package client is the thin Go client of the Expelliarmus repository
// server (internal/server): one pooled HTTP connection set per Client,
// per-request deadlines, and retries for idempotent requests only.
//
// Streaming fidelity. Image downloads are verified end to end: the body
// is hashed as it streams into the caller's writer and checked against
// the server's X-Expel-Sha256/X-Expel-Bytes trailers, and a connection
// aborted mid-stream surfaces as a read error (the chunked framing never
// terminates), so a truncated or damaged image can never be mistaken for
// a complete one.
//
// Error mapping. A 404 with error kind "not-found" unwraps to
// vmirepo.ErrNotFound and a kind "corrupt" reply to blobstore.ErrCorrupt,
// so code written against the in-process API routes remote absence and
// remote corruption identically. A stream the server aborted mid-body —
// or ended without its integrity trailers — unwraps to ErrTruncated,
// never a bare EOF, so callers can tell "the image is incomplete" from
// "the image failed verification"; a truncated stream that delivered no
// bytes to the caller's sink is retried like any transport failure.
package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/server"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// Options configure a Client.
type Options struct {
	// Timeout is the per-request deadline layered onto the caller's
	// context; zero means no client-imposed deadline.
	Timeout time.Duration
	// Retries is how many times an idempotent request (the GETs and
	// DELETE) is retried after a transport-level failure, provided no
	// response bytes reached the caller yet. Non-idempotent requests
	// (publish, assemble, sync) are never retried. Zero means one extra
	// attempt would be zero — i.e. no retries.
	Retries int
}

// Client talks to one repository server. It is safe for concurrent use;
// connections are pooled and reused across requests.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
}

// New returns a client for addr ("host:port" or a full http/https URL).
func New(addr string, o Options) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		timeout: o.Timeout,
		retries: o.Retries,
	}
}

// Close releases pooled idle connections. In-flight requests finish.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

func (c *Client) ctx(parent context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, c.timeout)
}

// ErrTruncated reports that an image stream ended before its integrity
// trailers arrived: the server (or the connection) aborted mid-body.
// The bytes already delivered are an incomplete prefix, not a damaged
// whole — callers distinguishing "retry the download" from "the image
// failed verification" should test for this sentinel with errors.Is.
var ErrTruncated = errors.New("image stream truncated before trailers")

// apiError reconstructs the operation error from a non-2xx reply,
// resurfacing the server's absence/corruption distinction as the same
// sentinels the in-process API uses.
func apiError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	text := strings.TrimSpace(string(msg))
	if text == "" {
		text = resp.Status
	}
	switch resp.Header.Get(server.HeaderErrorKind) {
	case server.KindNotFound:
		return fmt.Errorf("client: %s: %w", text, vmirepo.ErrNotFound)
	case server.KindCorrupt:
		return fmt.Errorf("client: %s: %w", text, blobstore.ErrCorrupt)
	case server.KindReadOnly:
		return fmt.Errorf("client: %s: %w", text, vmirepo.ErrReadOnly)
	case server.KindEpochGone:
		return fmt.Errorf("client: %s: %w", text, metawal.ErrEpochGone)
	case server.KindQuotaExceeded:
		return fmt.Errorf("client: %s: %w", text, vmirepo.ErrQuotaExceeded)
	}
	return fmt.Errorf("client: server returned %s: %s", resp.Status, text)
}

// doIdempotent issues req-building attempts until one succeeds, retrying
// transport-level failures (and streams truncated before any byte
// reached the caller) up to c.retries times. The builder is called
// afresh per attempt — each one constructs a brand-new request, so a
// response body partially consumed by the previous attempt can never
// leak into the next. attempt must report via wrote whether any
// response bytes already reached the caller's sink — once they have,
// retrying would corrupt it, so the error is final.
func (c *Client) doIdempotent(attempt func() (wrote bool, err error)) error {
	var err error
	for try := 0; ; try++ {
		var wrote bool
		wrote, err = attempt()
		if err == nil {
			return nil
		}
		var uerr *url.Error
		retryable := errors.As(err, &uerr) || errors.Is(err, ErrTruncated)
		if !retryable || wrote || try >= c.retries {
			return err
		}
	}
}

// Retrieve streams the named VMI's serialized image into w, verifying
// length and SHA-256 against the response trailers. It returns the byte
// count and the server's retrieval report.
func (c *Client) Retrieve(ctx context.Context, name string, w io.Writer) (int64, *wire.RetrieveResult, error) {
	var n int64
	var res *wire.RetrieveResult
	err := c.doIdempotent(func() (bool, error) {
		var err error
		n, res, err = c.streamGet(ctx, c.base+"/v1/images/"+url.PathEscape(name), w)
		return n > 0, err
	})
	return n, res, err
}

// streamGet fetches one trailer-verified image stream into w.
func (c *Client) streamGet(parent context.Context, u string, w io.Writer) (int64, *wire.RetrieveResult, error) {
	ctx, cancel := c.ctx(parent)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, apiError(resp)
	}
	return verifyStream(resp, w)
}

// verifyStream drains a streamed image body into w and checks it against
// the trailers. A server abort mid-stream surfaces as ErrTruncated —
// whether it manifests as a body read error (chunked framing cut off)
// or as a body that ended cleanly but never delivered its trailers —
// so callers are never handed a generic EOF for an incomplete image.
func verifyStream(resp *http.Response, w io.Writer) (int64, *wire.RetrieveResult, error) {
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(w, h), resp.Body)
	if err != nil {
		return n, nil, fmt.Errorf("client: image stream aborted after %d bytes: %w: %w", n, ErrTruncated, err)
	}
	wantSha := resp.Trailer.Get(server.HeaderSha256)
	wantBytes := resp.Trailer.Get(server.HeaderBytes)
	resJSON := resp.Trailer.Get(server.HeaderResult)
	if wantSha == "" || wantBytes == "" || resJSON == "" {
		return n, nil, fmt.Errorf("client: stream ended without integrity trailers: %w", ErrTruncated)
	}
	if want, err := strconv.ParseInt(wantBytes, 10, 64); err != nil || want != n {
		return n, nil, fmt.Errorf("client: streamed %d bytes, server reported %q", n, wantBytes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSha {
		return n, nil, fmt.Errorf("client: image digest %s does not match server's %s", got, wantSha)
	}
	var res wire.RetrieveResult
	if err := json.Unmarshal([]byte(resJSON), &res); err != nil {
		return n, nil, fmt.Errorf("client: decode result trailer: %w", err)
	}
	return n, &res, nil
}

// Publish streams an image envelope produced by encode (typically
// Image.EncodeWire or wire.WriteImage) to the server and returns its
// publish report. Publish is not idempotent and never retried.
func (c *Client) Publish(parent context.Context, encode func(io.Writer) error) (*wire.PublishResult, error) {
	ctx, cancel := c.ctx(parent)
	defer cancel()
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(encode(pw)) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/images", pr)
	if err != nil {
		pr.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	// Unblock the encoder goroutine on any early exit (send error, or a
	// server that replied without draining the body).
	defer pr.Close()
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var res wire.PublishResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("client: decode publish result: %w", err)
	}
	return &res, nil
}

// Assemble asks the server to build a VMI from stored packages and
// streams the resulting image into w (verified like Retrieve). Assembly
// has no repository side effects, but the response is a one-shot stream,
// so it is not retried.
func (c *Client) Assemble(parent context.Context, req wire.AssembleRequest, w io.Writer) (int64, *wire.RetrieveResult, error) {
	ctx, cancel := c.ctx(parent)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/assemble", strings.NewReader(string(body)))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, apiError(resp)
	}
	return verifyStream(resp, w)
}

// Remove deletes a published VMI (with server-side garbage collection).
func (c *Client) Remove(parent context.Context, name string) error {
	return c.doIdempotent(func() (bool, error) {
		ctx, cancel := c.ctx(parent)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/images/"+url.PathEscape(name), nil)
		if err != nil {
			return false, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return false, apiError(resp)
		}
		return false, nil
	})
}

// Stats returns the server's repository and cache statistics.
func (c *Client) Stats(parent context.Context) (*wire.Stats, error) {
	var out wire.Stats
	err := c.doIdempotent(func() (bool, error) {
		return false, c.getJSON(parent, c.base+"/v1/stats", &out)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Sync forces a durable save on a disk-backed server.
func (c *Client) Sync(parent context.Context) (*wire.SyncStats, error) {
	return c.postSyncStats(parent, "/v1/sync")
}

// Compact forces compaction of the server's stores — metadata WAL
// snapshot rewrite plus blob segment reclamation — and returns the same
// durable-save breakdown a sync does. Compaction mutates on-disk layout,
// so like Sync it is never retried.
func (c *Client) Compact(parent context.Context) (*wire.SyncStats, error) {
	return c.postSyncStats(parent, "/v1/compact")
}

// Vacuum reclaims dangling server-side state — unreferenced packages,
// orphaned archives and lifecycle records, blob orphans — and compacts
// the stores. Like Sync and Compact it mutates the repository, so it is
// never retried.
func (c *Client) Vacuum(parent context.Context) (*wire.VacuumStats, error) {
	ctx, cancel := c.ctx(parent)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/vacuum", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out wire.VacuumStats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode vacuum stats: %w", err)
	}
	return &out, nil
}

// postSyncStats POSTs one maintenance endpoint and decodes its
// wire.SyncStats reply.
func (c *Client) postSyncStats(parent context.Context, path string) (*wire.SyncStats, error) {
	ctx, cancel := c.ctx(parent)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out wire.SyncStats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode %s stats: %w", path, err)
	}
	return &out, nil
}

// Snapshot streams the server's repository snapshot into w.
func (c *Client) Snapshot(parent context.Context, w io.Writer) (int64, error) {
	var n int64
	err := c.doIdempotent(func() (bool, error) {
		ctx, cancel := c.ctx(parent)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/snapshot", nil)
		if err != nil {
			return false, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false, apiError(resp)
		}
		n, err = io.Copy(w, resp.Body)
		return n > 0, err
	})
	return n, err
}

// GraphDOT returns the server's master graphs in Graphviz DOT form.
func (c *Client) GraphDOT(parent context.Context) (string, error) {
	var out string
	err := c.doIdempotent(func() (bool, error) {
		ctx, cancel := c.ctx(parent)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/graphs/dot", nil)
		if err != nil {
			return false, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false, apiError(resp)
		}
		b, err := io.ReadAll(resp.Body)
		out = string(b)
		return false, err
	})
	return out, err
}

// getJSON fetches u and decodes the JSON reply into v.
func (c *Client) getJSON(parent context.Context, u string, v any) error {
	ctx, cancel := c.ctx(parent)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("client: decode %s: %w", u, err)
	}
	return nil
}
